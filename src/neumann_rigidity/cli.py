"""Command-line interface: every computation as a reproducible subcommand.

Configuration is a flat key=value text file overridden by CLI flags; the
sha256 of the canonical key=value listing is stamped as a comment line
into every CSV/JSON output, so each table records the configuration that
produced it. All randomness flows from one 64-bit seed. Sweeps accept
either a single value (``--lambda 3.5``) or a geometric range
``lo:hi:count`` (``--lambda 1:100:8``).

``_validate`` refuses every non-finite float option, a negative
``lambda2`` and p = 1 outside ``bounds``, and sets the dimension ``d``
of ``bounds``. ``_DOMAINS`` maps each ``--domain`` kind to its
constructor.
``_emit`` writes every output, failure diagnostics included, as one
finished string, and ``_sweep`` runs the ``quotient`` and ``klt`` sweeps.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from . import branch as branch_mod
from . import constants as constants_mod
from . import flow as flow_mod
from . import klt as klt_mod
from . import variational as variational_mod
from .errors import ConvergenceError, RangeError, ToolkitError
from .grid import Domain, Field, build_grid, field_to_csv
from .spectral import _gap_datum, _threshold_scale, spectral_gap

_DOMAINS = {
    "interval": lambda cfg: Domain.box(1.0),
    "rectangle": lambda cfg: Domain.box(cfg.aspect, 1.0),
    "radial_ball": lambda cfg: Domain.ball(max(cfg.d, 2), 1.0),
}


@dataclass
class RunConfig:
    """Everything a run depends on; fully serializable as key=value."""

    command: str = ""
    domain: str = "interval"
    d: int = 1
    aspect: float = 1.0          # rectangle side ratio before normalization
    n: int = 256
    p: float = 2.0
    beta: float = 0.0
    theta: float = 0.0
    lam: str = ""                # value or lo:hi:count (geometric)
    mu: str = ""
    lambda2: float = 0.0         # 0 means "compute from the domain"
    t_end: float = 0.25
    amp: float = 0.1
    tol: float = 0.01
    seed: int = 1
    jobs: int = 1
    log_sobolev: bool = False
    kind: str = ""               # flow kind: heat | nonlinear
    out: str = ""

    def canonical_text(self) -> str:
        # the output path never affects computed values, so it stays out
        # of the identity that gets stamped into result files
        return "".join(f"{f.name}={getattr(self, f.name)!r}\n"
                       for f in sorted(fields(self), key=lambda f: f.name)
                       if f.name != "out")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise RangeError(
            f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RangeError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _coerce(cfg: RunConfig, key: str, raw: str) -> None:
    if key not in {f.name for f in fields(cfg)}:
        raise RangeError(f"unknown config key {key!r}")
    current = getattr(cfg, key)
    if isinstance(current, bool):
        setattr(cfg, key, raw.lower() in ("1", "true", "yes"))
    elif isinstance(current, (int, float)):
        try:
            setattr(cfg, key, type(current)(raw))
        except ValueError as exc:
            raise RangeError(f"bad value for config key {key!r}: "
                             f"{raw!r}") from exc
    else:
        setattr(cfg, key, raw)


def parse_sweep(spec: str, name: str) -> List[float]:
    if not spec:
        raise RangeError(f"missing required value for --{name}")
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise RangeError(
            f"--{name} expects VALUE or LO:HI:COUNT, got {spec!r}")
    try:
        values = [float(x) for x in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise RangeError(f"--{name}: not a number in {spec!r}") from None
    if not np.isfinite(values).all():
        raise RangeError(f"--{name} values must be finite, got {spec!r}")
    if len(parts) == 1:
        return values
    lo, hi = values
    if not (lo > 0.0 and hi > lo and count >= 2):
        raise RangeError(f"bad sweep range for --{name}: {spec!r}")
    return [float(x) for x in np.geomspace(lo, hi, count)]


def make_domain(cfg: RunConfig) -> Domain:
    if cfg.domain not in _DOMAINS:
        raise RangeError(f"--domain must be one of {tuple(_DOMAINS)}")
    return _DOMAINS[cfg.domain](cfg)


def make_grid(cfg: RunConfig):
    return build_grid(make_domain(cfg), cfg.n)


# ----------------------------------------------------------------------
# output helpers
def _emit(path: str, text: str) -> None:
    """Write one finished output to ``path``, or to stdout if it is empty."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(cfg: RunConfig, header: Sequence[str],
              rows: Sequence[Sequence], note: str = "") -> None:
    lines = [f"# config_sha256={cfg.digest()}"]
    if note:
        lines.append(f"# {note}")
    lines.append(",".join(header))
    lines.extend(",".join(repr(float(x)) if isinstance(x, (float, np.floating))
                          else str(x) for x in row) for row in rows)
    _emit(cfg.out, "\n".join(lines) + "\n")


def write_json(cfg: RunConfig, payload: dict) -> None:
    payload = {"config_sha256": cfg.digest(), **payload}
    _emit(cfg.out, json.dumps(payload, indent=2, sort_keys=True,
                              default=float) + "\n")


# ----------------------------------------------------------------------
# subcommands
def cmd_bounds(cfg: RunConfig) -> None:
    # _validate has set d from the domain (see its rule there)
    lam2 = cfg.lambda2
    if lam2 == 0.0:
        lam2 = spectral_gap(make_grid(cfg)).eigenvalue
    rep = constants_mod.rigidity_bounds(cfg.p, cfg.d, lam2,
                                        log_sobolev=cfg.log_sobolev)
    rows = [(name, "-" if val is None else val) for name, val in (
        (name, getattr(rep, name)) for name in (
            "lambda2", "lower_nonlinear", "lower_heat",
            "lower_heat_traceless", "lower_beckner", "best_lower", "upper"))]
    write_csv(cfg, ("bound", "value"), rows,
              note=f"p={cfg.p!r} d={cfg.d} scale=interpolation-constant")


def cmd_eigen(cfg: RunConfig) -> None:
    grid = make_grid(cfg)
    pair = spectral_gap(grid)
    text = io.StringIO()
    text.write(f"# config_sha256={cfg.digest()}\n"
               f"# lambda2={pair.eigenvalue!r} residual={pair.residual!r}"
               f" iterations={pair.iterations}\n")
    field_to_csv(pair.eigenfunction, text, value_name="u2")
    _emit(cfg.out, text.getvalue())


def _quotient_task(args):
    cfg_dict, lam = args
    cfg = RunConfig(**cfg_dict)
    grid = make_grid(cfg)
    sol = variational_mod.minimize_quotient(grid, lam, cfg.p, seed=cfg.seed)
    return (lam, sol.mu_out, sol.constant_deviation, sol.iterations)


def cmd_quotient(cfg: RunConfig) -> None:
    _sweep(cfg, _quotient_task, parse_sweep(cfg.lam, "lambda"),
           ("lambda", "mu", "constant_deviation", "iterations"))


def _mu2(cfg: RunConfig, grid):
    """lambda2, the explicit bounds and the measured mu2 bracket."""
    bracket = variational_mod.estimate_mu2(grid, cfg.p, tol=cfg.tol,
                                           seed=cfg.seed)
    lam2 = spectral_gap(grid).eigenvalue
    rep = constants_mod.rigidity_bounds(cfg.p, grid.dim, lam2)
    return lam2, rep, bracket


def _mu1(cfg: RunConfig, grid):
    """The branch traced from 0.8 lambda2/|p-1| upward and its mu1."""
    lam0 = 0.8 * _threshold_scale(grid, cfg.p)
    trace = branch_mod.trace_branch(grid, cfg.p, lam0, direction=1)
    return trace, branch_mod.estimate_mu1(trace)


def cmd_mu2(cfg: RunConfig) -> None:
    lam2, rep, bracket = _mu2(cfg, make_grid(cfg))
    lo, hi = rep.threshold_window()
    write_json(cfg, {
        "mu2_lo": bracket.mu2_lo, "mu2_hi": bracket.mu2_hi,
        "open_upper": bracket.open_upper,
        "window_lo": lo, "window_hi": hi, "lambda2": lam2})


def cmd_mu1(cfg: RunConfig) -> None:
    trace, est = _mu1(cfg, make_grid(cfg))
    if cfg.out:
        rows = [(pt.lam, pt.deviation, float(np.max(np.abs(pt.solution.values))),
                 pt.arclength) for pt in trace.points]
        write_csv(cfg, ("lambda", "deviation", "sup_norm", "arclength"), rows,
                  note=f"mu1_estimate={est!r} bifurcation={trace.bifurcation_lambda!r}")
    else:
        write_json(cfg, {"mu1_estimate": est,
                         "bifurcation_lambda": trace.bifurcation_lambda,
                         "truncated": trace.truncated,
                         "n_points": len(trace.points),
                         "solver": {
                             **{k: getattr(trace, k) for k in (
                                 "factorizations", "corrector_iterations",
                                 "rejected_steps", "stop", "unknowns")},
                             "folds": [{"lambda": f.point.lam,
                                        "corrector_calls": f.corrector_calls}
                                       for f in trace.folds]}})


def cmd_flow(cfg: RunConfig) -> None:
    grid = make_grid(cfg)
    if cfg.kind == "heat":
        v0 = Field(grid, _gap_datum(grid, cfg.amp) ** 2)
        trace = flow_mod.heat_flow_run(grid, cfg.p, v0, cfg.t_end)
    elif cfg.kind == "nonlinear":
        v0 = Field(grid, _gap_datum(grid, cfg.amp))
        trace = flow_mod.nonlinear_flow_run(grid, cfg.p, cfg.beta, cfg.theta,
                                            v0, cfg.t_end)
    else:
        raise RangeError("flow kind must be 'heat' or 'nonlinear'")
    rows = list(zip(trace.times, trace.entropy_e, trace.production_i,
                    trace.j_lambda, trace.mass, trace.min_v, trace.dt_used))
    write_csv(cfg, ("t", "e", "i", "j_lambda", "mass", "min_v", "dt"), rows,
              note=f"lambda2={trace.lambda2!r} Lambda={trace.Lambda!r} "
                   f"unknowns={trace.unknowns}")


def _klt_task(args):
    cfg_dict, mu = args
    cfg = RunConfig(**cfg_dict)
    grid = make_grid(cfg)
    res = klt_mod.klt_duality_check(grid, cfg.p, mu, seed=cfg.seed)
    return (mu, res.nu, res.lambda_of_mu, res.relative_gap)


def cmd_klt(cfg: RunConfig) -> None:
    if cfg.mu:
        mus = parse_sweep(cfg.mu, "mu")
    else:
        # default duality sweep: two decades around the threshold scale,
        # twelve points per decade
        scale = _threshold_scale(make_grid(cfg), cfg.p)
        mus = [float(x) for x in np.geomspace(0.1 * scale, 10.0 * scale, 25)]
    _sweep(cfg, _klt_task, mus, ("mu", "nu", "lambda_mu", "relative_gap"))


def cmd_report(cfg: RunConfig) -> None:
    """Headline summary: explicit bounds vs measured thresholds and duality."""
    grid = make_grid(cfg)
    lam2, rep, bracket = _mu2(cfg, grid)
    trace, mu1 = _mu1(cfg, grid)
    mu_mid = 0.5 * (bracket.mu2_lo + bracket.mu2_hi)
    gaps = {}
    for label, mu in (("half", 0.5 * mu_mid), ("one", mu_mid),
                      ("double", 2.0 * mu_mid)):
        res = klt_mod.klt_duality_check(grid, cfg.p, mu, seed=cfg.seed)
        gaps[label] = {"mu": mu, "nu": res.nu,
                       "lambda_mu": res.lambda_of_mu,
                       "relative_gap": res.relative_gap}
    write_json(cfg, {
        "lambda2": lam2,
        "bounds": {k: v for k, v in asdict(rep).items()
                   if k not in ("p", "d")},
        "threshold_window": list(rep.threshold_window()),
        "mu2_bracket": [bracket.mu2_lo, bracket.mu2_hi],
        "mu2_open_upper": bracket.open_upper,
        "mu1_estimate": mu1,
        "bifurcation_lambda": trace.bifurcation_lambda,
        "klt_gaps": gaps,
    })


def _fan_out(fn, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # a fork pool starts all its workers at once, so start no idle ones
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _sweep(cfg: RunConfig, task, values: Sequence[float],
           header: Sequence[str]) -> None:
    """Run ``task`` at every value of a sweep, ``cfg.jobs`` at a time, and
    write its rows sorted by the value in their first column."""
    rows = _fan_out(task, [(asdict(cfg), v) for v in values], cfg.jobs)
    rows.sort(key=lambda r: r[0])
    write_csv(cfg, header, rows)


# ----------------------------------------------------------------------
# argument parsing
_COMMANDS = {
    "bounds": cmd_bounds,
    "eigen": cmd_eigen,
    "quotient": cmd_quotient,
    "mu2": cmd_mu2,
    "mu1": cmd_mu1,
    "flow": cmd_flow,
    "klt": cmd_klt,
    "report": cmd_report,
}


# the help texts of the flags built from RunConfig's fields
_HELP = {"lam": "value or LO:HI:COUNT", "mu": "value or LO:HI:COUNT",
         "out": "output path (default: stdout)"}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="neumann-rigidity",
        description="Rigidity thresholds, interpolation constants, entropy "
                    "flows and Schrodinger duality on convex Neumann domains.")
    sub = top.add_subparsers(dest="command", required=True)

    # the flags of every subcommand, built once and shared as a parent:
    # one per RunConfig field; the subcommand sets the other two
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="", help="key=value config file")
    for f in fields(RunConfig):
        if f.name in ("command", "kind"):
            continue
        flag = ("--lambda" if f.name == "lam"
                else "--" + f.name.replace("_", "-"))
        kw = {"dest": f.name, "help": _HELP.get(f.name)}
        if isinstance(f.default, bool):
            kw.update(action="store_true", default=None)
        elif not isinstance(f.default, str):
            kw["type"] = type(f.default)
        if f.name == "domain":
            kw["choices"] = tuple(_DOMAINS)
        common.add_argument(flag, **kw)

    for name in _COMMANDS:
        sp = sub.add_parser(name, parents=[common])
        if name == "flow":
            sp.add_argument("kind", choices=("heat", "nonlinear"))
    return top


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", ""):
        for key, raw in _load_config_file(args.config).items():
            _coerce(cfg, key, raw)
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        _validate(cfg)
        _COMMANDS[cfg.command](cfg)
    except RangeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _write_failure_diagnostics(cfg, exc)
        return 1
    return 0


def _validate(cfg: RunConfig) -> None:
    for key, value in asdict(cfg).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise RangeError(f"{key} must be finite, got {value!r}")
    if cfg.lambda2 < 0.0:
        raise RangeError("--lambda2 must be positive (0 computes it)")
    if cfg.p == 1.0 and (cfg.command != "bounds" or not cfg.log_sobolev):
        raise RangeError("p = 1 is taken only by bounds, with --log-sobolev")
    if cfg.command == "bounds":
        # a computed lambda2 is the domain's, so d is its dimension; a
        # given one may belong to a domain of the larger dimension --d
        dim = make_domain(cfg).dimension
        cfg.d = dim if cfg.lambda2 == 0.0 else max(cfg.d, dim)
    if not cfg.n >= 8:
        raise RangeError("--n must be at least 8")


def _write_failure_diagnostics(cfg: RunConfig, exc: Exception) -> None:
    """Leave the failure, the run's parameters and the solver state in --out."""
    if not cfg.out:
        return
    lines = [f"# config_sha256={cfg.digest()}",
             f"# FAILED: {type(exc).__name__}: {exc}",
             f"# command={cfg.command} p={cfg.p!r} domain={cfg.domain} "
             f"n={cfg.n}"]
    if isinstance(exc, ConvergenceError):
        lines.append(f"# residual={exc.residual!r} "
                     f"iterations={exc.iterations!r}")
    if getattr(exc, "t", None) is not None:
        lines.append(f"# t={exc.t!r} dt={exc.dt!r}")
    if getattr(exc, "stage", None) is not None:
        lines.append(f"# stage={exc.stage} lam={exc.lam!r} "
                     f"step={exc.step!r}")
    try:
        _emit(cfg.out, "\n".join(lines) + "\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
