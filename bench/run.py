"""Outside-in benchmark of the neumann-rigidity CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload report-interval256 --seed 1 \
        --seconds 10 --trace 0

Each run is a fresh process that imports the package from ``src/`` of the
checkout and calls ``neumann_rigidity.cli.main(argv)`` in-process, one op
after the other, with ``--out`` pointing at a file under ``.bench_out/``.
``--trace 0`` times the op loop and prints the end-to-end metrics;
``--trace 1`` wraps the package's public functions and prints the
per-layer metrics. Every op's output is checked either way. The last line
of standard output is one JSON object; a result file with the environment,
every op and its output digest goes to ``.bench_out/results/``.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
TAILS = (0.9, 0.99, 0.999)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, make_ops  # noqa: E402  (pure Python)


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        cap = min(int(raw), nproc) if raw.isdigit() and int(raw) > 0 else nproc
        os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package():
    """The package from this checkout's ``src/``; raises ImportError."""
    sys.path.insert(0, str(SRC))
    import neumann_rigidity
    from neumann_rigidity import cli
    if Path(neumann_rigidity.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"imported {neumann_rigidity.__file__}, which is "
                          f"not under {SRC}")
    return cli


def timed_setup(workload: str, seed: int, seconds: float):
    """(seconds, cli module, ops): import the package and make the op list."""
    t0 = time.perf_counter()
    cli = import_package()
    ops = make_ops(workload, seed, seconds)
    return time.perf_counter() - t0, cli, ops


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(done.stdout.split()[-1])


def latency_summary(samples) -> dict:
    """Median with its n, plus the highest tail percentile that has at
    least ten samples beyond it (none when no percentile has)."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for q in reversed(TAILS):
        steps = round(1.0 / (1.0 - q))
        if len(samples) < 10 * steps:
            continue
        value = statistics.quantiles(samples, n=steps,
                                     method="inclusive")[steps - 2]
        if sum(s > value for s in samples) >= 10:
            out[f"p{q * 100:g}"] = value
            break
    return out


def environment(thread_caps: dict, grid) -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return ""

    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = read(f"{idx}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{read(f'{idx}/level')}"] = read(f"{idx}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": thread_caps,
        "grid_shape": list(grid.shape),
        "grid_field_bytes": int(grid.weights.nbytes),
    }


class Op:
    """One CLI call: its parsed config, reference lambda2 and outcome."""

    def __init__(self, cli, argv, grids):
        self.argv = argv
        self.cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        key = (self.cfg.domain, self.cfg.n)
        if key not in grids:
            from neumann_rigidity.spectral import spectral_gap
            grid = cli.make_grid(self.cfg)
            grids[key] = (grid, spectral_gap(grid).eigenvalue)
        self.grid, self.lambda2 = grids[key]
        self.exit_code = None
        self.seconds = 0.0
        self.problems = []
        self.sha256 = ""

    def run(self, main, path: Path) -> None:
        t0 = time.perf_counter()
        try:
            self.exit_code = main([*self.argv, "--out", str(path)])
        except Exception:  # the loop must go on; the op counts as failed
            self.exit_code = -1
            self.problems.append(traceback.format_exc(limit=3))
        self.seconds = time.perf_counter() - t0

    def check(self, path: Path) -> None:
        from checks import check_op  # imports numpy: only after cap_threads
        data = path.read_bytes() if path.exists() else b""
        self.sha256 = hashlib.sha256(data).hexdigest()
        if not self.problems:
            self.problems = check_op(self.cfg.command, self.cfg.kind,
                                     self.cfg.p, self.exit_code,
                                     data.decode("utf-8", "replace"),
                                     self.lambda2)

    def record(self) -> dict:
        return {"argv": " ".join(self.argv), "exit_code": self.exit_code,
                "seconds": self.seconds, "problems": self.problems,
                "sha256": self.sha256}


def run_workload(args) -> int:
    thread_caps = cap_threads()
    try:
        setup_s, cli, argvs = timed_setup(args.workload, args.seed,
                                          args.seconds)
    except ImportError as exc:
        print(f"bench: cannot import the package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]

    grids = {}
    ops = [Op(cli, argv, grids) for argv in argvs]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [tmp / f"{os.getpid()}-{k}.out" for k in range(len(ops))]

    rec = None
    cost = 0.0
    if args.trace:
        import spans  # imports numpy: only after cap_threads
        cost = spans.wrapper_cost()
        rec = spans.Recorder()
        restore = spans.install(rec)
    try:
        t0 = time.perf_counter()
        for k, (op, path) in enumerate(zip(ops, paths)):
            if rec is not None:
                rec.op_id = k
            op.run(cli.main, path)
        loop_wall = time.perf_counter() - t0
    finally:
        if rec is not None:
            restore()
    for op, path in zip(ops, paths):
        op.check(path)
        path.unlink(missing_ok=True)

    failed = sum(bool(op.problems) for op in ops)
    latency = latency_summary([op.seconds for op in ops])
    grid = ops[0].grid
    if rec is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (loop_wall, "s"),
            "op_p50_s": (latency["p50"], "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / len(ops), "frac"),
        }
        extra = {"setup_samples_s": setups, "latency": latency,
                 "fail_frac": failed / len(ops)}
    else:
        metrics = spans.layer_metrics(rec, loop_wall, cost, grid)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        rec.save(str(spans_dir / f"{args.workload}.npz"))
        extra = {"wrapper_cost_s": cost, "traced_loop_s": loop_wall,
                 **spans.op_summary(rec)}

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(thread_caps, grid),
              "ops": [op.record() for op in ops], **extra, **result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for op in ops:
        if op.problems:
            print(f"FAILED {' '.join(op.argv)}: {'; '.join(op.problems)}",
                  file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=900)
        if done.returncode != 0:
            print(f"bench: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return done.returncode
        one = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for metric, val in one["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        cap_threads()
        print(timed_setup(args.workload, args.seed, args.seconds)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
