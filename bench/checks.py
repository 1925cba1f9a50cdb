"""Output checks for every benchmark op, at the acceptance tolerances.

Each checker takes the text an op wrote and the reference values the
benchmark computed itself, and returns a list of problems; an empty list
means the output passed. Checks never see timings.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

import numpy as np


def _comment_fields(text: str) -> Dict[str, str]:
    """key=value pairs from the '#' comment lines of a CSV output."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    key, val = tok.split("=", 1)
                    out[key] = val
    return out


def _csv_table(text: str) -> Dict[str, np.ndarray]:
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#")]
    if len(rows) < 2:
        raise ValueError("CSV output has no data rows")
    header = rows[0].split(",")
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    if data.shape[1] != len(header):
        raise ValueError("CSV rows do not match the header")
    return {name: data[:, k] for k, name in enumerate(header)}


def _optional_float(raw: Optional[str]) -> Optional[float]:
    if raw is None or raw == "None":
        return None
    return float(raw)


def check_report(text: str, p: float) -> List[str]:
    doc = json.loads(text)
    problems = []
    lo, hi = doc["mu2_bracket"]
    lam_star = doc["lambda2"] / abs(p - 1.0)
    if doc["mu2_open_upper"]:
        problems.append("mu2 bracket is open")
    win_lo = doc["threshold_window"][0]
    # an interval has no explicit lower bound for p > 1, so the window's
    # lower end is null and that side of the check is vacuous
    if win_lo is not None and not lo >= 0.98 * win_lo:
        problems.append(f"mu2 lower end {lo!r} below 0.98 * window {win_lo!r}")
    if not hi <= 1.02 * lam_star:
        problems.append(f"mu2 upper end {hi!r} above 1.02 * lambda2/|p-1|")
    mu1 = doc["mu1_estimate"]
    if mu1 is None:
        problems.append("mu1_estimate is null")
    elif not mu1 <= 1.02 * 0.5 * (lo + hi):
        problems.append(f"mu1 {mu1!r} above 1.02 * bracket midpoint")
    for label, gap in sorted(doc["klt_gaps"].items()):
        if not gap["relative_gap"] < 1e-4:
            problems.append(f"klt gap {label} is {gap['relative_gap']!r}")
    return problems


def check_mu1(text: str, p: float, lambda2: float) -> List[str]:
    note = _comment_fields(text)
    _csv_table(text)  # the branch table itself must parse
    problems = []
    lam_star = lambda2 / abs(p - 1.0)
    bif = _optional_float(note.get("bifurcation"))
    if bif is None or not abs(bif - lam_star) <= 0.02 * lam_star:
        problems.append(f"bifurcation {bif!r} not within 2% of {lam_star!r}")
    mu1 = _optional_float(note.get("mu1_estimate"))
    if mu1 is None:
        problems.append("mu1_estimate is null")
    elif not mu1 <= 1.02 * lam_star:
        problems.append(f"mu1 {mu1!r} above 1.02 * lambda2/|p-1|")
    return problems


def check_flow(text: str, kind: str, lambda2: float) -> List[str]:
    tab = _csv_table(text)
    problems = []
    mass = tab["mass"]
    drift = float(np.max(np.abs(mass - mass[0]))) / abs(mass[0])
    if not drift < 1e-6:
        problems.append(f"relative mass drift {drift!r}")
    j = tab["j_lambda"]
    rise = np.diff(j) - (1e-10 * np.abs(j[:-1]) + 1e-12)
    if np.any(rise > 0.0):
        problems.append(f"j_lambda increases at {int(np.sum(rise > 0.0))} "
                        "steps")
    if not float(np.min(tab["min_v"])) > 0.0:
        problems.append("min_v reached 0")
    if kind == "heat":
        rate = decay_rate(tab["t"], tab["i"])
        if not rate >= 0.95 * lambda2:
            problems.append(f"decay rate {rate!r} below 0.95 * lambda2")
    return problems


def decay_rate(t: np.ndarray, i: np.ndarray) -> float:
    """Minus the least-squares slope of log i over t, above a 1e-12 floor."""
    mask = i > 1e-12 * max(float(i[0]), 1e-300)
    if int(mask.sum()) < 3:
        return -math.inf
    return -float(np.polyfit(t[mask], np.log(i[mask]), 1)[0])


def check_op(command: str, kind: str, p: float, exit_code: int,
             text: str, lambda2: float) -> List[str]:
    """All problems with one op's result; [] when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if command == "report":
            return check_report(text, p)
        if command == "mu1":
            return check_mu1(text, p, lambda2)
        if command == "flow":
            return check_flow(text, kind, lambda2)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"no checker for command {command!r}"]
