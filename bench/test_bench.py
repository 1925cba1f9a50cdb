"""Tests of the benchmark's own code: span arithmetic, percentiles, checkers.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


# ----------------------------------------------------------------------
# span tree
def _tree():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3];  0 -> 3 [5, 9];  op 1: 4 [20, 22]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 22.0])
    op = np.array([0, 0, 0, 0, 1])
    return op, parent, end - start


def test_self_time_subtracts_children_only():
    _, parent, dur = _tree()
    assert spans.self_times(parent, dur).tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_self_times_of_an_op_add_up_to_its_root():
    op, parent, dur = _tree()
    assert spans.op_balance(op, parent, dur) == 0.0


def test_under_marks_every_descendant():
    _, parent, _ = _tree()
    anc = np.array([False, True, False, False, False])
    assert spans.under(parent, anc).tolist() == [False, False, True, False,
                                                 False]


def test_recorder_links_nested_calls_and_closes_failed_ones():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    inner = rec.wrap("inner", boom)

    def outer():
        with pytest.raises(ValueError):
            inner()
        return 7

    assert rec.wrap("outer", outer)() == 7
    a = rec.arrays()
    assert [rec.names[i] for i in a["name_id"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert np.all(a["end"] >= a["start"])


def test_install_wraps_every_binding_and_restores():
    cli = run.import_package()
    import neumann_rigidity as pkg
    orig_gap = pkg.spectral.spectral_gap
    orig_cmd = cli._COMMANDS["report"]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        gap = pkg.spectral.spectral_gap
        assert gap is not orig_gap and gap.__wrapped__ is orig_gap
        for mod in (pkg.cli, pkg.variational, pkg.branch, pkg.flow):
            assert mod.spectral_gap is gap
        assert pkg.klt.lambda_of_mu is pkg.variational.lambda_of_mu
        assert (pkg.klt.schrodinger_ground_state
                is pkg.spectral.schrodinger_ground_state)
        assert pkg.klt.lambda_of_mu.__wrapped__ is not None
        assert cli._COMMANDS["report"].__wrapped__ is orig_cmd
        assert pkg.branch.splu is not pkg.spectral.splu
        grid = cli.make_grid(cli.RunConfig(domain="interval", n=16))
        grid.stiffness_apply(np.ones(grid.shape))
        assert "grid.stiffness_apply" in rec.names
    finally:
        restore()
    assert pkg.spectral.spectral_gap is orig_gap
    assert pkg.cli.spectral_gap is orig_gap
    assert cli._COMMANDS["report"] is orig_cmd
    assert pkg.branch.splu is pkg.spectral.splu


# ----------------------------------------------------------------------
# latency summary
def test_no_tail_percentile_without_ten_samples_beyond_it():
    for n in (1, 2, 9, 50, 99):
        summary = run.latency_summary([float(k) for k in range(n)])
        assert set(summary) == {"n", "p50"}


def test_tail_percentile_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(100)]
    summary = run.latency_summary(samples)
    assert "p90" in summary and "p99" not in summary
    assert sum(s > summary["p90"] for s in samples) >= 10
    big = [float(k) for k in range(1000)]
    assert "p99" in run.latency_summary(big)


# ----------------------------------------------------------------------
# workloads
def test_ops_follow_the_seed():
    for name in WORKLOADS:
        a = make_ops(name, 3, 10)
        assert a == make_ops(name, 3, 10)
        assert a != make_ops(name, 4, 10)
        assert all(op[-2:] == ["--jobs", "1"] for op in a)
    assert len(make_ops("flow-square64", 1, 12)) == 4


# ----------------------------------------------------------------------
# checkers, each on a valid output and on hand-corrupted copies
_REPORT = {
    "lambda2": 9.869, "threshold_window": [9.869, 19.738],
    "mu2_bracket": [19.708, 19.878], "mu2_open_upper": False,
    "mu1_estimate": 19.739,
    "klt_gaps": {"half": {"relative_gap": 4e-13},
                 "one": {"relative_gap": 6e-10}},
}


def _report(**changes):
    doc = json.loads(json.dumps(_REPORT))
    doc.update(changes)
    return json.dumps(doc)


def test_report_checker():
    assert checks.check_op("report", "", 0.5, 0, _report(), 0.0) == []
    assert checks.check_op("report", "", 2.0, 0, _report(
        threshold_window=[None, 9.869], mu2_bracket=[9.7, 9.9],
        mu1_estimate=9.87), 0.0) == []
    bad = [_report(mu2_open_upper=True),
           _report(mu2_bracket=[19.708, 21.0]),
           _report(mu2_bracket=[9.0, 19.878]),
           _report(mu1_estimate=None),
           _report(mu1_estimate=25.0),
           _report(klt_gaps={"one": {"relative_gap": 2e-4}}),
           "{not json"]
    for text in bad:
        assert checks.check_op("report", "", 0.5, 0, text, 0.0), text


def _flow_csv(t, i, j, mass, min_v):
    rows = ["# config_sha256=0", "# lambda2=9.87 Lambda=4.9",
            "t,e,i,j_lambda,mass,min_v,dt"]
    for k in range(t.size):
        rows.append(",".join(repr(float(x)) for x in
                             (t[k], 0.0, i[k], j[k], mass[k], min_v[k], 1e-4)))
    return "\n".join(rows) + "\n"


def _flow(**changes):
    t = np.linspace(0.0, 0.35, 40)
    cols = {"t": t, "i": np.exp(-2.0 * 9.87 * t), "j": np.exp(-5.0 * t),
            "mass": np.ones_like(t), "min_v": np.full_like(t, 0.8)}
    cols.update(changes)
    return _flow_csv(**cols)


def test_flow_checker():
    lam2 = 9.87
    for kind in ("heat", "nonlinear"):
        assert checks.check_op("flow", kind, 0.5, 0, _flow(), lam2) == []
    bump = np.exp(-5.0 * np.linspace(0.0, 0.35, 40))
    bump[20] = 1.001 * bump[19]
    drift = np.ones(40)
    drift[-1] += 1e-5
    bad = [_flow(j=bump), _flow(mass=drift), _flow(min_v=np.zeros(40)),
           "# only a comment\n"]
    for text in bad:
        assert checks.check_op("flow", "nonlinear", 2.0, 0, text, lam2)
    slow = _flow(i=np.exp(-0.5 * 9.87 * np.linspace(0.0, 0.35, 40)))
    assert checks.check_op("flow", "heat", 0.5, 0, slow, lam2)
    assert checks.check_op("flow", "nonlinear", 2.0, 0, slow, lam2) == []


def test_decay_rate_recovers_an_exponential():
    t = np.linspace(0.0, 1.0, 50)
    assert math.isclose(checks.decay_rate(t, 3.0 * np.exp(-7.0 * t)), 7.0)


def _mu1(est, bif):
    return (f"# config_sha256=0\n# mu1_estimate={est} bifurcation={bif}\n"
            "lambda,deviation,sup_norm,arclength\n9.0,0.0,9.0,0.0\n")


def test_mu1_checker():
    lam2 = 9.87
    assert checks.check_op("mu1", "", 2.0, 0, _mu1(9.87, 9.87), lam2) == []
    assert checks.check_op("mu1", "", 0.5, 0, _mu1(19.0, 19.74), lam2) == []
    for text in (_mu1(None, 9.87), _mu1(9.87, None), _mu1(9.87, 10.5),
                 _mu1(10.5, 9.87)):
        assert checks.check_op("mu1", "", 2.0, 0, text, lam2), text


def test_nonzero_exit_fails_every_command():
    assert checks.check_op("report", "", 0.5, 1, _report(), 0.0)
    assert checks.check_op("flow", "heat", 0.5, 2, _flow(), 9.87)
    assert checks.check_op("mu1", "", 2.0, -1, _mu1(9.87, 9.87), 9.87)
