import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neumann_rigidity import cli, improvement_phi, make_exponents
from neumann_rigidity.cli import main, parse_sweep
from neumann_rigidity.errors import ConvergenceError, DampingError, RangeError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip().split(","))
    return rows[0], rows[1:]


def test_bounds_log_sobolev(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "1", "--d", "2",
                       "--lambda2", "1", "--log-sobolev")
    assert code == 0
    table = dict(line.split(",") for line in out.splitlines()
                 if line and not line.startswith("#") and "," in line)
    assert float(table["best_lower"]) == pytest.approx(8.0 / 9.0)
    assert float(table["upper"]) == 1.0


def test_bounds_formula_value(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "2", "--d", "3",
                       "--lambda2", "1")
    assert code == 0
    table = dict(line.split(",") for line in out.splitlines()
                 if line and not line.startswith("#") and "," in line)
    assert float(table["lower_nonlinear"]) == pytest.approx(9.0 / 17.0)


def test_bounds_dimension_is_the_domains(capsys):
    # an explicit --lambda2 keeps the rectangle's d = 2, so every bound
    # is the one of the computed lambda2, rescaled
    tables = []
    for extra in ((), ("--lambda2", "19.7")):
        code, out, _ = run(capsys, "bounds", "--domain", "rectangle",
                           "--n", "16", "--p", "2", *extra)
        assert code == 0
        assert "# p=2.0 d=2 " in out
        tables.append(dict(line.split(",") for line in out.splitlines()
                           if line and not line.startswith("#")))
    for name in ("lower_nonlinear", "lower_heat_traceless"):
        ratios = [float(t[name]) / float(t["lambda2"]) for t in tables]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)


def test_bounds_p1_without_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--p", "1", "--d", "2",
                       "--lambda2", "1")
    assert code == 2
    assert "log-sobolev" in err


def test_eigen_csv(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code, _, _ = run(capsys, "eigen", "--domain", "interval", "--n", "128",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    lam2 = float(lines[1].split("lambda2=")[1].split()[0])
    assert abs(lam2 - math.pi**2) / math.pi**2 < 0.01
    header, rows = _csv_rows(out)
    assert header == ["x", "u2"]
    assert len(rows) == 128


def test_quotient_sweep_determinism(tmp_path, capsys):
    args = ("quotient", "--domain", "interval", "--n", "64", "--p", "2",
            "--lambda", "2:40:4", "--seed", "7")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _csv_rows(a)
    assert header == ["lambda", "mu", "constant_deviation", "iterations"]
    assert len(rows) == 4
    for lam, mu, *_ in rows:
        assert float(mu) <= float(lam) + 1e-9


def test_quotient_jobs_match_serial(tmp_path, capsys):
    base = ("quotient", "--domain", "interval", "--n", "64", "--p", "2",
            "--lambda", "2:40:4", "--seed", "7")
    a, b = tmp_path / "serial.csv", tmp_path / "pool.csv"
    assert run(capsys, *base, "--jobs", "1", "--out", str(a))[0] == 0
    assert run(capsys, *base, "--jobs", "2", "--out", str(b))[0] == 0
    # config hashes differ (jobs is part of the config); rows must not
    rows_a = a.read_text().splitlines()[1:]
    rows_b = b.read_text().splitlines()[1:]
    assert rows_a == rows_b


@pytest.mark.parametrize("jobs, n_tasks, workers", [
    (64, 3, 3), (2, 3, 2), (3, 3, 3)])
def test_fan_out_starts_no_more_workers_than_tasks(monkeypatch, jobs,
                                                   n_tasks, workers):
    started = []

    class InlineExecutor:
        # stands in for the process pool: records its size, maps in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    tasks = list(range(n_tasks))
    assert cli._fan_out(abs, tasks, jobs) == tasks
    assert started == [workers]


def test_flow_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _, _ = run(capsys, "flow", "heat", "--domain", "rectangle",
                     "--n", "32", "--p", "0.5", "--t-end", "0.03",
                     "--out", str(out))
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["t", "e", "i", "j_lambda", "mass", "min_v", "dt"]
    j = [float(r[3]) for r in rows]
    assert all(b <= a + 1e-10 * abs(a) + 1e-12 for a, b in zip(j, j[1:]))


@pytest.mark.parametrize("domain, unknowns", [
    (("rectangle", "--aspect", "0.5"), 16), (("interval",), 16),
    (("radial_ball", "--d", "3"), 16)], ids=["rect0.5x1", "interval", "ball3"])
def test_flow_note_records_unknowns(tmp_path, capsys, domain, unknowns):
    # the note line names the node count of the grid the flow ran on: the
    # gap datum's subspace grid, one axis of the rectangle's 16 x 16 nodes
    for kind, extra in (("heat", ("--p", "0.5")),
                        ("nonlinear", ("--p", "2", "--theta", "0.9",
                                       "--beta", "-0.6923"))):
        out = tmp_path / f"{kind}.csv"
        code, _, _ = run(capsys, "flow", kind, "--domain", *domain,
                         "--n", "16", *extra, "--t-end", "0.01",
                         "--out", str(out))
        assert code == 0
        note = out.read_text().splitlines()[1].split()
        assert note[-1] == f"unknowns={unknowns}", kind


def test_klt_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run(capsys, "klt", "--domain", "interval", "--n", "64",
                     "--p", "2", "--mu", "3:30:4", "--out", str(out))
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["mu", "nu", "lambda_mu", "relative_gap"]
    assert all(float(r[3]) < 1e-4 for r in rows)


def test_sweep_rows_match_single_runs(tmp_path, capsys):
    # a sweep point gives the row of a run at that value alone
    base = ("klt", "--domain", "interval", "--n", "64", "--p", "0.5")
    sweep = tmp_path / "sweep.csv"
    assert run(capsys, *base, "--mu", "100:300:3", "--out", str(sweep))[0] == 0
    _, rows = _csv_rows(sweep)
    assert len(rows) == 3
    for k, row in enumerate(rows):
        one = tmp_path / f"one{k}.csv"
        assert run(capsys, *base, "--mu", row[0], "--out", str(one))[0] == 0
        assert _csv_rows(one)[1] == [row]


def test_mu2_json(capsys):
    code, out, _ = run(capsys, "mu2", "--domain", "interval", "--n", "64",
                       "--p", "2", "--tol", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu2_lo"] <= doc["mu2_hi"]
    assert not doc["open_upper"]


def test_mu1_json(capsys):
    code, out, _ = run(capsys, "mu1", "--domain", "interval", "--n", "64",
                       "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu1_estimate"] == pytest.approx(doc["bifurcation_lambda"],
                                                rel=0.02)


def test_mu1_json_solver_block(capsys):
    code, out, _ = run(capsys, "mu1", "--domain", "interval", "--n", "64",
                       "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu1_estimate"] is not None
    solver = doc["solver"]
    assert sorted(solver) == ["corrector_iterations", "factorizations",
                              "folds", "rejected_steps", "stop", "unknowns"]
    assert solver["unknowns"] == 64
    assert solver["folds"] == []
    assert solver["stop"] in ("lam_cap", "n_max", "step_failures")
    assert 0 < solver["factorizations"] < solver["corrector_iterations"]
    assert doc["truncated"] == (solver["stop"] == "step_failures")


def test_mu1_json_records_the_fold(capsys):
    # the disk's radial branch turns back once: mu1 is that fold's lambda,
    # and the fold is not one of the counted points
    code, out, _ = run(capsys, "mu1", "--domain", "radial_ball", "--d", "2",
                       "--n", "64", "--p", "2")
    assert code == 0
    doc = json.loads(out)
    (fold,) = doc["solver"]["folds"]
    assert sorted(fold) == ["corrector_calls", "lambda"]
    assert fold["lambda"] == doc["mu1_estimate"]
    assert fold["lambda"] / doc["bifurcation_lambda"] == pytest.approx(
        0.8887613179, rel=1e-8)
    assert 0 < fold["corrector_calls"] <= 20


def test_mu1_csv_is_deterministic(tmp_path, capsys):
    # no state of one trace (grid caches, factors) may change a second run
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        code, _, _ = run(capsys, "mu1", "--domain", "rectangle", "--n", "32",
                         "--p", "0.5", "--out", str(out))
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ("flow", "heat", "--domain", "rectangle", "--n", "16", "--p", "0.5",
     "--t-end", "0.05"),
    ("flow", "nonlinear", "--domain", "rectangle", "--n", "16", "--p", "2",
     "--theta", "0.9", "--beta", "-0.6923", "--t-end", "0.05"),
], ids=["heat", "nonlinear"])
def test_flow_csv_is_deterministic(tmp_path, capsys, argv):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=1\nlog_sobolev=true\nd=2\nlambda2=1.0\n")
    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert "0.888888888888888" in out
    # flags override file entries
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("p=3\nd=2\nlambda2=1.0\n")
    code, out, _ = run(capsys, "bounds", "--config", str(cfg2), "--p", "2",
                       "--d", "3")
    assert code == 0
    table = dict(line.split(",") for line in out.splitlines()
                 if line and not line.startswith("#") and "," in line)
    assert float(table["lower_nonlinear"]) == pytest.approx(9.0 / 17.0)


@pytest.mark.parametrize("content", [None, b"\xff\xfe=1\n"],
                         ids=["missing", "not_utf8"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    code, _, err = run(capsys, "bounds", "--config", str(cfg))
    assert code == 2
    assert err.startswith("usage error:") and "run.cfg" in err


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=abc\n")
    code, _, err = run(capsys, "eigen", "--config", str(cfg))
    assert code == 2
    assert err.startswith("usage error:") and "'abc'" in err


def test_flow_past_the_stage_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "flow", "nonlinear", "--domain", "interval",
                         "--n", "16", "--p", "2", "--theta", "0.9",
                         "--beta", "-0.6923", "--t-end", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "t_end/n_store" in err


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "--domain", "interval", "--n", "64",
                       "--p", "2", "--tol", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu1_estimate"] is not None
    assert doc["mu2_bracket"][0] <= doc["mu2_bracket"][1]
    assert doc["threshold_window"][1] == pytest.approx(doc["lambda2"])
    for entry in doc["klt_gaps"].values():
        assert entry["relative_gap"] < 1e-4


def test_bad_sweep_is_usage_error(capsys):
    # a reversed range, a malformed value or count, and a non-finite value
    for cmd, flag, spec in (("quotient", "--lambda", "5:1:3"),
                            ("quotient", "--lambda", "abc"),
                            ("quotient", "--lambda", "1:2:x"),
                            ("quotient", "--lambda", "1:2:3.5"),
                            ("quotient", "--lambda", "inf"),
                            ("quotient", "--lambda", "1:inf:3"),
                            ("quotient", "--lambda", "nan"),
                            ("klt", "--mu", "abc")):
        code, _, err = run(capsys, cmd, "--domain", "interval",
                           "--n", "64", "--p", "2", flag, spec)
        assert code == 2 and "usage error" in err, (cmd, spec)
    with pytest.raises(RangeError):
        parse_sweep("1:2", "lambda")
    assert parse_sweep("3.5", "lambda") == [3.5]
    assert len(parse_sweep("1:100:5", "lambda")) == 5


def test_bad_domain_geometry_is_usage_error(capsys):
    # a non-finite or non-positive side is refused before any grid is
    # built, and so is a ball whose measure overflows
    bad = [("--domain", "rectangle", "--aspect", aspect)
           for aspect in ("inf", "nan", "-1", "0")]
    bad.append(("--domain", "radial_ball", "--d", "400"))
    for flags in bad:
        code, out, err = run(capsys, "eigen", *flags, "--n", "16")
        assert code == 2 and err.startswith("usage error:"), flags
        assert out == ""


def test_non_finite_float_option_is_usage_error(tmp_path, capsys):
    # every float option must be finite, from a flag or a config file, and
    # --lambda2 may not be negative (0 computes it from the domain)
    bounds = ("bounds", "--domain", "rectangle", "--n", "16", "--p", "2")
    common = ("--domain", "interval", "--n", "16")
    heat = ("flow", "heat", *common, "--p", "0.5")
    nonlinear = ("flow", "nonlinear", *common, "--p", "2", "--theta", "0.5")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("amp=nan\n")
    bad = [(*bounds, "--lambda2", v) for v in ("-1", "nan", "inf")]
    bad += [(*heat, "--t-end", "inf"), (*heat, "--amp", "nan"),
            (*heat, "--amp", "inf"), (*heat, "--config", str(cfg)),
            (*nonlinear, "--beta", "nan"), (*nonlinear, "--beta", "inf"),
            ("mu2", *common, "--tol", "inf")]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error:"), argv
        assert out == "", argv


def test_inadmissible_exponent_is_usage_error(capsys):
    code, out, err = run(capsys, "mu1", "--domain", "interval", "--n", "64",
                         "--p", "-1")
    assert code == 2 and err.startswith("usage error:")
    assert out == ""


@pytest.mark.parametrize("cmd", [
    ("mu1",), ("klt",), ("klt", "--mu", "5"), ("mu2",),
    ("quotient", "--lambda", "5"), ("report",), ("flow", "nonlinear"),
], ids=["mu1", "klt", "klt_mu", "mu2", "quotient", "report",
        "flow_nonlinear"])
def test_p1_threshold_scale_is_usage_error(tmp_path, capsys, cmd):
    # lambda2/|p-1| has no value at p = 1, and only bounds takes the
    # log-Sobolev case: every other command refuses it, flag or not, and
    # names bounds rather than asking for the flag it was given
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *cmd, "--domain", "interval", "--n", "16",
                         "--p", "1", "--log-sobolev", "--out", str(out_path))
    assert code == 2 and err.startswith("usage error:") and "p = 1" in err
    assert "requires the log-Sobolev flag" not in err and "bounds" in err
    assert out == "" and not out_path.exists()


def _fail_with(exc):
    def solver(*args, **kwargs):
        raise exc
    return solver


def test_failure_diagnostics_record_run_and_solver_state(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "mu1.csv"
    monkeypatch.setattr(cli.branch_mod, "trace_branch", _fail_with(
        ConvergenceError("corrector stuck", 3.25e-7, 30)))
    code, _, err = run(capsys, "mu1", "--domain", "rectangle", "--n", "16",
                       "--p", "0.5", "--out", str(out))
    assert code == 1
    assert "corrector stuck" in err
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1:] == [
        "# FAILED: ConvergenceError: corrector stuck",
        "# command=mu1 p=0.5 domain=rectangle n=16",
        "# residual=3.25e-07 iterations=30"]


def test_failure_diagnostics_without_solver_state(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "mu1.csv"
    monkeypatch.setattr(cli.branch_mod, "trace_branch",
                        _fail_with(DampingError("positivity lost")))
    code, _, _ = run(capsys, "mu1", "--domain", "interval", "--n", "32",
                     "--out", str(out))
    assert code == 1
    assert out.read_text().splitlines()[1:] == [
        "# FAILED: DampingError: positivity lost",
        "# command=mu1 p=2.0 domain=interval n=32"]


def test_failure_diagnostics_record_flow_time_and_step(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "flow.csv"
    monkeypatch.setattr(cli.flow_mod, "_rkl2_step",
                        lambda rhs, y, dt, s: -abs(y))
    code, _, err = run(capsys, "flow", "nonlinear", "--domain", "rectangle",
                       "--n", "16", "--p", "2", "--theta", "0.9",
                       "--beta", "-0.6923", "--t-end", "0.25",
                       "--out", str(out))
    assert code == 1
    assert "lost positivity" in err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("# FAILED: PositivityError: ")
    assert lines[2:] == [
        "# command=flow p=2.0 domain=rectangle n=16",
        f"# t=0.0 dt={0.25 / 400 / 2**39!r}"]


def test_failure_diagnostics_record_bisection_stage(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "mu2.json"
    real = cli.variational_mod.minimize_quotient
    params = []

    def failing_third_solve(grid, lam, p, **kwargs):
        params.append(lam)
        if len(params) == 3:
            raise ConvergenceError("every start failed its line search",
                                   1.5e-3, 4000)
        return real(grid, lam, p, **kwargs)

    monkeypatch.setattr(cli.variational_mod, "minimize_quotient",
                        failing_third_solve)
    code, _, err = run(capsys, "mu2", "--domain", "interval", "--n", "32",
                       "--p", "2", "--out", str(out))
    assert code == 1
    assert "every start failed" in err
    assert out.read_text().splitlines()[1:] == [
        "# FAILED: ConvergenceError: every start failed its line search",
        "# command=mu2 p=2.0 domain=interval n=32",
        "# residual=0.0015 iterations=4000",
        f"# stage=mu2 bisection lam={params[2]!r} step=2"]


_IMPORT_BUDGET = """
import json, sys
import neumann_rigidity.cli
heavy = ("scipy.integrate", "scipy.special", "scipy.optimize")
loaded = [m for m in heavy if m in sys.modules]
from neumann_rigidity import improvement_phi, make_exponents
res = improvement_phi(0.2, make_exponents(2.0, 3, beta=5.0 / 3.0), 0.9)
print(json.dumps({"loaded": loaded, "phi": list(res),
                  "integrate_after": "scipy.integrate" in sys.modules}))
"""


def test_cli_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter: the CLI must not pay for scipy.integrate (and the
    # scipy.special / scipy.optimize it drags in) until phi is integrated
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["loaded"] == []
    assert got["integrate_after"] is True
    ref = improvement_phi(0.2, make_exponents(2.0, 3, beta=5.0 / 3.0), 0.9)
    assert got["phi"] == list(ref)


def _reference_subcommand_flags(sp):
    # every subcommand's flags as each subparser added them one by one
    sp.add_argument("--config", default="", help="key=value config file")
    for f in dataclasses.fields(cli.RunConfig):
        if f.name in ("command", "kind"):
            continue
        flag = ("--lambda" if f.name == "lam"
                else "--" + f.name.replace("_", "-"))
        kw = {"dest": f.name, "help": cli._HELP.get(f.name)}
        if isinstance(f.default, bool):
            kw.update(action="store_true", default=None)
        elif not isinstance(f.default, str):
            kw["type"] = type(f.default)
        if f.name == "domain":
            kw["choices"] = tuple(cli._DOMAINS)
        sp.add_argument(flag, **kw)


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _action_spec(a):
    return (tuple(a.option_strings), a.dest, a.type, a.default, a.choices,
            a.help, a.nargs, a.const, a.required, type(a))


def test_shared_flags_keep_every_subcommand_interface(monkeypatch):
    # the common flags are built once and shared; each subcommand keeps
    # the flags, dests, types, defaults, choices and help texts of a
    # parser that adds them itself, and flow's kind stays its positional
    monkeypatch.setenv("COLUMNS", "100")
    ref_top = argparse.ArgumentParser(
        prog="neumann-rigidity",
        description="Rigidity thresholds, interpolation constants, entropy "
                    "flows and Schrodinger duality on convex Neumann domains.")
    ref_sub = ref_top.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        sp = ref_sub.add_parser(name)
        if name == "flow":
            sp.add_argument("kind", choices=("heat", "nonlinear"))
        _reference_subcommand_flags(sp)
    top = cli.build_parser()
    assert top.format_help() == ref_top.format_help()
    got, ref = _subparsers(top), _subparsers(ref_top)
    assert list(got) == list(ref) == list(cli._COMMANDS)
    for name in ref:
        g, r = got[name], ref[name]
        assert g.format_help() == r.format_help(), name
        assert g.format_usage() == r.format_usage(), name
        assert (sorted(map(_action_spec, g._actions), key=repr)
                == sorted(map(_action_spec, r._actions), key=repr)), name
        positionals = [a.dest for a in g._actions if not a.option_strings]
        assert positionals == (["kind"] if name == "flow" else []), name
    argv = ["flow", "nonlinear", "--domain", "rectangle", "--n", "64",
            "--p", "2", "--theta", "0.9", "--beta", "-0.6923",
            "--t-end", "0.25", "--seed", "3", "--jobs", "1",
            "--log-sobolev"]
    assert vars(top.parse_args(argv)) == vars(ref_top.parse_args(argv))
