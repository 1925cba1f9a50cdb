import numpy as np
import pytest

from neumann_rigidity.rng import SplitMix64


def _scalar_draws(rng, shape):
    n = int(np.prod(shape))
    return np.array([rng.uniform() for _ in range(n)]).reshape(shape)


@pytest.mark.parametrize("seed", [0, 1, 7, 2026, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("shape", [(1,), (257,), (5, 7), (16, 16)])
def test_uniforms_match_scalar_loop(seed, shape):
    for make in (lambda: SplitMix64(seed), lambda: SplitMix64(seed).spawn(17)):
        fast, slow = make(), make()
        a = fast.uniforms(shape)
        b = _scalar_draws(slow, shape)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        # the stream continues from the same state
        assert fast.next_u64() == slow.next_u64()
        assert fast.spawn(3).uniform() == slow.spawn(3).uniform()
