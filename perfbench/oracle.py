"""Independent checks of coorbital's CLI output.

Nothing here imports coorbital. The kernel is re-derived from its
definition, f(t) = sin(t) * (1 - 1/(8*|sin(t/2)|**3)), and evaluated
in 30-digit mpmath (or in numpy where only a float answer is needed),
so a check cannot agree with the package merely because it shares its
code.

Each checker takes the invocation's parameters, its exit code and its
output text, and returns a list of ``Problem``s; an empty list means the
output passed. Problems are of two kinds:

- ``contract``: the output breaks the CLI's documented behaviour or
  disagrees with the oracle (wrong value, wrong exit code, malformed
  output, a verdict that contradicts its own printed residual).
- ``verdict``: ``verify`` printed a verdict consistent with its own
  documented absolute 1e-8 gate, but the ring was built to be central
  (or not) and the verdict says otherwise.

Both kinds make the operation fail; only ``contract`` problems make the
run's output incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

DPS = 30
EPS = 2.0 ** -52
# printed floats carry 12 significant digits, so a printed value is
# within half a unit of the 12th digit of what the program computed
PRINT_REL = 5e-12
KERNEL_DELTA = 1e-4
TRACE_GATE = 1e-10
BOUNDARY_TOL = 1e-9
CASE_GATE = 1e-9
CATALOG_TOL = 1e-3
VERIFY_THRESHOLD = 1e-8
CATALOG_LABELS = ("A", "B", "C", "D", "E", "F_pt", "G", "H", "J", "K", "L", "M")
BAND_SIGN = {"D1": -1, "D2": 1, "D3": -1}


@dataclass(frozen=True)
class Problem:
    kind: str
    text: str


def _contract(text: str) -> Problem:
    return Problem("contract", text)


# ---------------------------------------------------------------- kernels


def mp_f(t):
    s = abs(mpmath.sin(t / 2))
    return mpmath.sin(t) * (1 - 1 / (8 * s ** 3))


def np_f(t: np.ndarray) -> np.ndarray:
    s = np.abs(np.sin(0.5 * t))
    return np.sin(t) * (1.0 - 1.0 / (8.0 * s * s * s))


def mp_curve(theta1, theta2):
    """C(theta1, theta2) with theta4 closing the ring, in mpmath."""
    theta4 = 2 * mpmath.pi - 2 * theta1 - theta2
    f12 = mp_f(theta1 + theta2)
    return mp_f(theta1) ** 2 - f12 ** 2 - mp_f(theta2) * mp_f(theta4)


def np_curve(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    theta4 = 2.0 * math.pi - 2.0 * theta1 - theta2
    f12 = np_f(theta1 + theta2)
    return np_f(theta1) ** 2 - f12 ** 2 - np_f(theta2) * np_f(theta4)


def kernel_magnitudes(t: float) -> Tuple[float, float, float]:
    """Sizes of the terms that f, f' and f'' sum at t. Rounding error in
    any float evaluation scales with these, not with the (possibly zero)
    result, which is what makes an absolute-error gate meaningful near
    the kernel's zeros."""
    s = abs(math.sin(0.5 * t))
    return (
        abs(math.sin(t)) * (1.0 + 1.0 / (8.0 * s ** 3)),
        abs(math.cos(t)) + (3.0 + abs(math.cos(t))) / (16.0 * s ** 3),
        abs(math.sin(t)) + 12.0 * abs(math.cos(0.5 * t)) / (32.0 * s ** 4),
    )


def mp_ring_residuals(thetas: Sequence[float], mus: Sequence[float]) -> List[float]:
    """Balance residual rows of a ring, summed in mpmath."""
    n = len(thetas)
    with mpmath.workdps(DPS):
        th = [mpmath.mpf(t) for t in thetas]
        rows = []
        for i in range(n):
            acc = mpmath.mpf(0)
            partial = mpmath.mpf(0)
            for j in range(1, n):
                partial += th[(i + j - 1) % n]
                acc += mus[(i + j) % n] * mp_f(partial)
            rows.append(float(acc))
    return rows


def np_f_prime(t: np.ndarray) -> np.ndarray:
    # d/dt of sin(t) - sin(t)/(8 s^3) with s = sin(t/2), simplified with
    # sin(t) = 2 s cos(t/2) and cos(t/2)^2 = (1 + cos t)/2
    s = np.abs(np.sin(0.5 * t))
    return np.cos(t) + (3.0 + np.cos(t)) / (16.0 * s * s * s)


def np_ring_residuals(thetas: Sequence[float], mus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Float residual rows of a ring and a bound, per row, on the
    rounding error any float evaluation of that row can carry: the
    j-th partial angle sum is off by up to j*eps*p_j, which f' amplifies
    near the collision end, and summing n terms adds n*eps*|term|."""
    th = np.asarray(thetas, dtype=float)
    mu = np.asarray(mus, dtype=float)
    n = th.size
    idx = (np.arange(n)[:, None] + np.arange(n - 1)[None, :]) % n
    partial = np.cumsum(th[idx], axis=1)
    weight = np.abs(mu[(idx + 1) % n])
    terms = mu[(idx + 1) % n] * np_f(partial)
    steps = np.arange(1, n)[None, :]
    bound = 4.0 * EPS * np.sum(
        weight * (n * np.abs(np_f(partial)) + steps * partial * np.abs(np_f_prime(partial))), axis=1)
    return terms.sum(axis=1), bound


# ---------------------------------------------------------------- parsing


def _csv_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    body = [line for line in text.split("\n") if line and not line.startswith("#")]
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError("no header row")
    return rows[0], rows[1:]


def _records(text: str, fmt: str) -> List[Dict[str, object]]:
    """Data records of a CSV or JSON table, as dicts of strings/values."""
    if fmt == "json":
        data = json.loads(text)["data"]
        if not isinstance(data, list):
            raise ValueError("data is not a list")
        return data
    header, rows = _csv_rows(text)
    out = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} fields, header has {len(header)}")
        out.append(dict(zip(header, row)))
    return out


def _num(value) -> Optional[float]:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise ValueError(f"boolean where a number belongs: {value!r}")
    return float(value)


def count_rows(text: str, fmt: str) -> int:
    """Data rows an output carries: CSV lines after the header, JSON
    list entries (a JSON object counts as one row)."""
    if fmt == "json":
        data = json.loads(text).get("data")
        return len(data) if isinstance(data, list) else 1
    return max(0, len(_csv_rows(text)[1]))


# ---------------------------------------------------------------- checkers


class KernelOracle:
    """30-digit f, f', f'' on the kernel grid, computed once per row and
    shared by the CSV and JSON outputs of the same grid."""

    def __init__(self, steps: int, stride: int):
        self.steps = steps
        self.stride = stride
        self.step = (2.0 * math.pi - 2.0 * KERNEL_DELTA) / steps
        self._rows: Dict[int, Tuple[float, float, float]] = {}

    def theta(self, k: int) -> float:
        return KERNEL_DELTA + k * self.step

    def truth(self, k: int) -> Tuple[float, float, float]:
        if k not in self._rows:
            with mpmath.workdps(DPS):
                t = mpmath.mpf(self.theta(k))
                self._rows[k] = (
                    float(mp_f(t)),
                    float(mpmath.diff(mp_f, t)),
                    float(mpmath.diff(mp_f, t, 2)),
                )
        return self._rows[k]


def check_kernel(params: dict, text: str, oracle: KernelOracle) -> List[Problem]:
    records = _records(text, params["format"])
    if len(records) != oracle.steps:
        return [_contract(f"kernel: {len(records)} rows, expected {oracle.steps}")]
    problems = []
    for k in range(0, oracle.steps, oracle.stride):
        rec = records[k]
        theta = oracle.theta(k)
        got_theta = _num(rec["theta"])
        if abs(got_theta - theta) > PRINT_REL * theta + EPS * theta:
            problems.append(_contract(f"kernel row {k}: theta {got_theta!r}, expected {theta!r}"))
            continue
        mags = kernel_magnitudes(theta)
        for key, true, mag in zip(("f", "f_prime", "f_double_prime"), oracle.truth(k), mags):
            got = _num(rec[key])
            tol = PRINT_REL * abs(true) + 64.0 * EPS * mag
            if not abs(got - true) <= tol:
                problems.append(_contract(
                    f"kernel row {k} {key}: {got!r} vs mpmath {true!r} (tol {tol:.3g})"))
        if len(problems) >= 5:
            break
    return problems


def line_roots(region: str, theta2: float, cells: int = 4000) -> Tuple[np.ndarray, bool]:
    """In-region curve crossings on one theta2 line, from a numpy scan of
    C over the whole strip, vectorised bisection and the band's sign test.

    Returns the crossings and whether any of them sits so close to the
    band's sign boundary that its classification is ambiguous.
    """
    lo, hi = 1e-6, math.pi - 0.5 * theta2 - 1e-6
    x = np.linspace(lo, hi, cells + 1)
    v = np_curve(x, theta2)
    cross = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    a, b = x[cross], x[cross + 1]
    fa = v[cross]
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = np_curve(m, theta2)
        left = fa * fm <= 0.0
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
    root = 0.5 * (a + b)
    d = np_f(root) - np_f(root + theta2)
    kept = BAND_SIGN[region] * d > -BOUNDARY_TOL
    return root[kept], bool(np.any(np.abs(d) < 1e3 * BOUNDARY_TOL))


def check_trace(params: dict, text: str) -> List[Problem]:
    region = params["region"]
    grid = [float(t) for t in np.linspace(params["lo"], params["hi"], params["steps"])]
    records = _records(text, params["format"])
    problems: List[Problem] = []
    by_line: Dict[int, int] = {}
    sign = BAND_SIGN[region]
    two_pi = 2.0 * math.pi
    with mpmath.workdps(DPS):
        for n, rec in enumerate(records):
            theta1, theta2p, theta4 = (_num(rec[k]) for k in ("theta1", "theta2", "theta4"))
            line = min(range(len(grid)), key=lambda i: abs(grid[i] - theta2p))
            theta2 = grid[line]
            if abs(theta2 - theta2p) > PRINT_REL * theta2 + EPS:
                problems.append(_contract(f"trace row {n}: theta2 {theta2p!r} is not a grid value"))
                continue
            by_line[line] = by_line.get(line, 0) + 1
            slack = PRINT_REL * (abs(theta4) + 2.0 * theta1 + theta2) + 4.0 * EPS
            if abs(theta4 - (two_pi - 2.0 * theta1 - theta2)) > slack:
                problems.append(_contract(f"trace row {n}: theta4 {theta4!r} != 2*pi - 2*theta1 - theta2"))
            t1, t2 = mpmath.mpf(theta1), mpmath.mpf(theta2)
            h = mpmath.mpf("1e-12")
            slope = abs((mp_curve(t1 + h, t2) - mp_curve(t1 - h, t2)) / (2 * h))
            resid = abs(mp_curve(t1, t2))
            # the program gates |C| < 1e-10 at its unrounded root; the
            # printed theta1 moves C by at most slope * print rounding
            tol = TRACE_GATE + float(slope) * (PRINT_REL * theta1 + 1e-13)
            if not resid < tol:
                problems.append(_contract(f"trace row {n}: |C| = {float(resid):.3g} at printed point (tol {tol:.3g})"))
            d = float(mp_f(t1) - mp_f(t1 + t2))
            # rows within 1e-9 of the sign boundary are kept as BOUNDARY;
            # a second 1e-9 covers the rounding of the printed theta1
            if sign * d < -2.0 * BOUNDARY_TOL:
                problems.append(_contract(f"trace row {n}: band {region} sign condition fails (d = {d:.3g})"))
            lam, r_sum = _num(rec["lambda"]), _num(rec["r_sum"])
            if lam is not None and r_sum is not None:
                if abs(lam - r_sum) > 1e-8 * max(1.0, abs(lam)):
                    problems.append(_contract(f"trace row {n}: lambda {lam!r} != r_sum {r_sum!r}"))
            if len(problems) >= 5:
                return problems
    for line, theta2 in enumerate(grid):
        roots, ambiguous = line_roots(region, theta2)
        got = by_line.get(line, 0)
        if got != len(roots) and not ambiguous:
            problems.append(_contract(
                f"trace line theta2={theta2!r}: {got} rows, independent scan finds {len(roots)}"))
            if len(problems) >= 5:
                break
    return problems


CASE_EQUATION = {
    # tag: (description, function of (theta1, theta2, theta4) that is zero)
    "T32": ("theta1 + theta2 = pi/3", lambda a, b, d: a + b - mpmath.pi / 3),
    "T33": ("theta1 + theta2 = pi", lambda a, b, d: a + b - mpmath.pi),
    "T34": ("theta1 + theta2 = 5*pi/3", lambda a, b, d: a + b - 5 * mpmath.pi / 3),
    "T36": ("theta2 = pi/3", lambda a, b, d: b - mpmath.pi / 3),
    "T37": ("theta4 = pi/3", lambda a, b, d: d - mpmath.pi / 3),
}


def _theorem_fields(text: str, fmt: str) -> Tuple[str, bool, Optional[List[float]], Optional[List[float]]]:
    if fmt == "json":
        data = json.loads(text)["data"]
        config = data["config"]
        thetas = None if config is None else [float(config[k]) for k in ("theta1", "theta2", "theta3", "theta4")]
        cond = data["mass_condition"]
        mus = None if cond is None else [float(m) for m in cond["sample_mus"]]
        if not isinstance(data["exists"], bool):
            raise ValueError("exists is not a boolean")
        return data["tag"], data["exists"], thetas, mus
    _, rows = _csv_rows(text)
    fields = {row[0]: row[1] for row in rows}
    exists = {"true": True, "false": False}[fields["exists"]]
    thetas = None
    if "theta1" in fields:
        thetas = [float(fields[k]) for k in ("theta1", "theta2", "theta3", "theta4")]
    mus = [float(m) for m in fields["sample_mus"].split()] if "sample_mus" in fields else None
    return fields["tag"], exists, thetas, mus


def check_theorem(params: dict, text: str) -> List[Problem]:
    tag = params["tag"]
    got_tag, exists, thetas, mus = _theorem_fields(text, params["format"])
    if got_tag != tag:
        return [_contract(f"theorem: tag {got_tag!r}, asked for {tag!r}")]
    if tag == "T35":
        if exists or thetas is not None:
            return [_contract("theorem T35: reported a configuration; the case has none")]
        return []
    if not exists or thetas is None or mus is None:
        return [_contract(f"theorem {tag}: no configuration reported")]
    problems = []
    theta1, theta2, theta3, theta4 = thetas
    # case angles are printed with 12 decimals
    if theta3 != theta1:
        problems.append(_contract(f"theorem {tag}: theta3 {theta3!r} != theta1 {theta1!r}"))
    if abs(2 * theta1 + theta2 + theta4 - 2 * math.pi) > 4 * 5e-13 + 8 * EPS:
        problems.append(_contract(f"theorem {tag}: gaps do not close the ring"))
    what, equation = CASE_EQUATION[tag]
    with mpmath.workdps(DPS):
        miss = abs(float(equation(mpmath.mpf(theta1), mpmath.mpf(theta2), mpmath.mpf(theta4))))
    if miss > 3 * 5e-13 + 8 * EPS:
        problems.append(_contract(f"theorem {tag}: case equation {what} misses by {miss:.3g}"))
    if min(mus) <= 0.0:
        problems.append(_contract(f"theorem {tag}: sample masses {mus} not positive"))
    worst = max(abs(r) for r in mp_ring_residuals([theta1, theta2, theta1, theta4], mus))
    if worst > CASE_GATE:
        problems.append(_contract(f"theorem {tag}: balance residual {worst:.3g} with the sample masses"))
    return problems


def check_special_points(params: dict, text: str) -> List[Problem]:
    records = _records(text, params["format"])
    labels = tuple(str(r["label"]) for r in records)
    if labels != CATALOG_LABELS:
        return [_contract(f"special-points: labels {labels}")]
    problems = []
    for rec in records:
        delta = _num(rec["delta"])
        if not delta <= CATALOG_TOL:
            problems.append(_contract(f"special-points {rec['label']}: delta {delta!r} > {CATALOG_TOL}"))
    return problems


def parse_verify(text: str) -> Tuple[float, str]:
    lines = text.split("\n")
    prefix = "max |residual| = "
    if len(lines) != 3 or not lines[0].startswith(prefix) or lines[2] != "":
        raise ValueError(f"unexpected verify output {text!r}")
    verdict = lines[1].split(" ")[0]
    if lines[1] != f"{verdict} (threshold 1e-08)" or verdict not in ("PASS", "FAIL"):
        raise ValueError(f"unexpected verdict line {lines[1]!r}")
    return float(lines[0][len(prefix):]), verdict


def check_verify(params: dict, rc: int, text: str) -> List[Problem]:
    """``params`` holds the ring (``thetas``, ``mus``) and ``central``,
    whether it was built to be a central configuration."""
    worst, verdict = parse_verify(text)
    problems = []
    if (verdict == "PASS") != (worst < VERIFY_THRESHOLD) or rc != (0 if verdict == "PASS" else 1):
        return [_contract(f"verify: verdict {verdict} with residual {worst!r} and exit {rc}")]
    rows, bound = np_ring_residuals(params["thetas"], params["mus"])
    slack = float(np.max(bound))
    if params["central"]:
        # the exact residual is zero, so a printed one is only rounding
        if worst > slack:
            problems.append(_contract(f"verify: residual {worst!r} exceeds the rounding bound {slack:.3g} of a central ring"))
    else:
        want = float(np.max(np.abs(rows)))
        if abs(worst - want) > PRINT_REL * want + slack:
            problems.append(_contract(f"verify: residual {worst!r}, independent float sum {want!r}"))
    expected = "PASS" if params["central"] else "FAIL"
    if verdict != expected:
        problems.append(Problem(
            "verdict",
            f"verify: {verdict} on a ring built {'central' if params['central'] else 'non-central'} "
            f"(residual {worst:.3g}, N = {len(rows)})"))
    return problems
