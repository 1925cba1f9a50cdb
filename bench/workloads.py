"""The benchmark's workloads: seeded lists of CLI argument vectors.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns, as in a researcher's script. The workload seed
fixes the ``--seed`` passed to each op and the order of the ops inside each
cycle; the program sees only the generated argv. README.md records why
each workload was chosen.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple


class Workload(NamedTuple):
    # Seconds one cycle took when the benchmark was defined (2-core Xeon,
    # Python 3.11, numpy 2.4, scipy 1.17). A run does a fixed number of
    # cycles derived from --seconds and this figure, never "as many as fit":
    # with a time-boxed loop a faster program would do more cycles in the
    # same wall time and the speed-up would not show in wall_s.
    cycle_s: float
    ops: Tuple[Tuple[str, ...], ...]


WORKLOADS = {
    "report-interval256": Workload(
        cycle_s=42.0,
        ops=(
            ("report", "--domain", "interval", "--n", "256", "--tol", "0.01",
             "--p", "2"),
            ("report", "--domain", "interval", "--n", "256", "--tol", "0.01",
             "--p", "0.5"),
        )),
    "mu1-square64": Workload(
        cycle_s=8.2,
        ops=(
            ("mu1", "--domain", "rectangle", "--n", "64", "--p", "2"),
            ("mu1", "--domain", "rectangle", "--n", "64", "--p", "0.5"),
        )),
    "flow-square64": Workload(
        cycle_s=6.0,
        ops=(
            ("flow", "nonlinear", "--domain", "rectangle", "--n", "64",
             "--p", "2", "--theta", "0.9", "--beta", "-0.6923",
             "--t-end", "0.25"),
            ("flow", "heat", "--domain", "rectangle", "--n", "64",
             "--p", "0.5", "--t-end", "0.35"),
        )),
}


def cycles_for(name: str, seconds: float) -> int:
    """Number of whole cycles a run of ``seconds`` does on workload ``name``."""
    return max(1, round(seconds / WORKLOADS[name].cycle_s))


def make_ops(name: str, seed: int, seconds: float) -> List[List[str]]:
    """The argv of every op of one run, in the order they are issued."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    ops: List[List[str]] = []
    for _ in range(cycles_for(name, seconds)):
        order = list(WORKLOADS[name].ops)
        rng.shuffle(order)
        for base in order:
            ops.append([*base, "--seed", str(rng.randrange(1, 2**31)),
                        "--jobs", "1"])
    return ops
