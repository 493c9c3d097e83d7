"""Command-line surface.

Subcommands: kernel (tabulate f and derivatives), theorem (solve one
degenerate case), trace (curve points across a theta2 grid), verify
(check a configuration file), special-points (the recomputed catalog).

All outputs are deterministic. CSV files carry "#"-prefixed manifest
comment lines before the single header row; JSON output is one object
with "manifest" and "data" keys. Numeric fields use 12 significant
digits (case angles use 12 decimal places).

Exit codes: 0 success/PASS, 1 verify FAIL, 2 bad input or IO, 3 solver
consistency failure, 4 trace residual failure, 5 catalog mismatch.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import numbers
import operator
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import __version__
from .catalog import CATALOG_TOL, build_catalog
from .curve import TRACE_RESID_GATE, trace_curve
from .exceptions import (
    CatalogMismatchError,
    ConsistencyError,
    CoorbitalError,
    NoSignChangeError,
    TraceResidualError,
)
from .kernel import TWO_PI, f_double_prime, f_eval, f_prime
from .model import ANGLE_SUM_TOL, AngleConfig, MassVector, residual_general
from .rootfind import ROOT_WIDTH_TOL
from .theorems import RESIDUAL_GATE, SOLVERS

KERNEL_GRID_DELTA = 1e-4
# rows per block: the kernel table evaluates this many nodes per numpy
# call and the writers format this many records per pass, so it bounds
# the rows held in memory at once
_BLOCK_ROWS = 256
VERIFY_THRESHOLD = 1e-8
VERIFY_RENORM_LIMIT = 1e-9

# exit code per error class, first match wins; other handled errors exit 2
EXIT_CODES = (
    (ConsistencyError, 3),
    (NoSignChangeError, 3),
    (TraceResidualError, 4),
    (CatalogMismatchError, 5),
)


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: Dict[str, object]
    tolerance_set: Dict[str, float]
    tool_version: str = __version__


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return str(value)


def _angle12(value: float) -> float:
    return float(format(value, ".12f"))


def _num12(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    return float(format(value, ".12g"))


def _manifest_lines(manifest: RunManifest) -> List[str]:
    lines = [f"# coorbital {manifest.command}", f"# tool_version = {manifest.tool_version}"]
    for key in sorted(manifest.parameters):
        lines.append(f"# param {key} = {_fmt(manifest.parameters[key])}")
    for key in sorted(manifest.tolerance_set):
        lines.append(f"# tol {key} = {_fmt(manifest.tolerance_set[key])}")
    return lines


def _json_text(manifest: RunManifest, data: object) -> str:
    payload = {"manifest": asdict(manifest), "data": data}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_value(value: object) -> str:
    """One JSON scalar, floats rounded to 12 significant digits; json.dumps
    writes the rest, NaN and Infinity included. _write_json calls it for
    the cells of every block its float template cannot write.

    A float's 12-digit text outside exponent notation is already the
    shortest repr of the float it reads as, but for a missing ".0", so
    only exponent forms, inf and nan take the float round trip."""
    if isinstance(value, float):
        text = format(value, ".12g")
        if "e" not in text and "n" not in text:
            return text if "." in text else text + ".0"
        value = float(text)
        if math.isfinite(value):
            return repr(value)
    return json.dumps(value)


@contextmanager
def _target(out: Optional[str]) -> Iterator[TextIO]:
    """stdout, or the --out file opened once for the whole run."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _blocks(
    rows: Iterable[Sequence[object]],
) -> Iterator[Tuple[List[Sequence[object]], bool]]:
    """The rows in lists of up to _BLOCK_ROWS, each with a flag that is
    True when every cell is exactly a float (numpy floats and other
    subclasses take the cell-by-cell path)."""
    it = iter(rows)
    for block in iter(lambda: list(itertools.islice(it, _BLOCK_ROWS)), []):
        yield block, set(map(type, itertools.chain.from_iterable(block))) == {float}


def _write_csv(
    fh: TextIO, manifest: RunManifest, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """The manifest as "#" lines, the header, then the rows of len(header)
    cells, a block at a time. A block of floats is formatted by one row
    template and skips csv's quoting scan: 12-digit float text holds no
    character that needs quoting. Other blocks go through csv.writer
    over _fmt cells."""
    for line in _manifest_lines(manifest):
        fh.write(line + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    line = ",".join(["%.12g"] * len(header)) + "\n"
    for block, floats in _blocks(rows):
        if floats:
            fh.write("".join(map(line.__mod__, map(tuple, block))))
        else:
            writer.writerows([_fmt(v) for v in row] for row in block)


def _write_json(
    fh: TextIO, manifest: RunManifest, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """The bytes of json.dumps({"manifest": ..., "data": [objects keyed by
    header]}, indent=2, sort_keys=True) + "\n", written a block of objects
    at a time through one object template in sorted key order.

    A block of floats is formatted "%.12g" by the template. That text is
    _json_value's exactly when each value holds one "." and no "e": inf,
    nan, -0.0 and integral floats lack the ".", and "e" marks an exponent
    form. Counting both in the block against the keys' own decides it.
    Any other block goes through _json_value column by column."""
    order = sorted(range(len(header)), key=header.__getitem__)
    keys = [json.dumps(header[i]).replace("%", "%%") for i in order]

    def template(spec: str) -> str:
        return "    {\n" + ",\n".join(f"      {key}: {spec}" for key in keys) + "\n    }"

    float_object, text_object = template("%.12g"), template("%s")
    pick = operator.itemgetter(*order)
    key_text = "".join(keys)
    per_object = (key_text.count("e"), key_text.count(".") + len(keys))
    fh.write('{\n  "data": [')
    lead = "\n"
    for block, floats in _blocks(rows):
        if floats:
            text = ",\n".join(map(float_object.__mod__, map(pick, block)))
            counts = (text.count("e"), text.count("."))
            floats = counts == tuple(len(block) * k for k in per_object)
        if not floats:
            columns = list(zip(*block))
            cells = zip(*[map(_json_value, columns[i]) for i in order])
            text = ",\n".join(map(text_object.__mod__, cells))
        fh.write(lead + text)
        lead = ",\n"
    fh.write("],\n" if lead == "\n" else "\n  ],\n")
    meta = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    fh.write('  "manifest": ' + meta.replace("\n", "\n  ") + "\n}\n")


def _emit_records(
    args: argparse.Namespace,
    manifest: RunManifest,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Stream records as CSV rows or as JSON objects keyed by header,
    written a block of _BLOCK_ROWS records at a time."""
    write = _write_json if args.format == "json" else _write_csv
    with _target(args.out) as fh:
        write(fh, manifest, header, rows)


def _kernel_rows(n: int, step: float) -> Iterator[tuple]:
    """Rows (theta, f, f', f'') at the nodes KERNEL_GRID_DELTA + k*step,
    k < n, evaluated on numpy blocks of _BLOCK_ROWS nodes."""
    import numpy as np
    for start in range(0, n, _BLOCK_ROWS):
        theta = KERNEL_GRID_DELTA + np.arange(start, min(start + _BLOCK_ROWS, n)) * step
        yield from zip(
            theta.tolist(),
            f_eval(theta).tolist(),
            f_prime(theta).tolist(),
            f_double_prime(theta).tolist(),
        )


def cmd_kernel(args: argparse.Namespace) -> int:
    n = args.steps
    if n < 2:
        raise ValueError("kernel grid needs at least 2 steps")
    manifest = RunManifest(
        command="kernel",
        parameters={"steps": n},
        tolerance_set={"grid_delta": KERNEL_GRID_DELTA},
    )
    step = (TWO_PI - 2.0 * KERNEL_GRID_DELTA) / n
    rows = _kernel_rows(n, step)
    _emit_records(args, manifest, ("theta", "f", "f_prime", "f_double_prime"), rows)
    return 0


def _case_data(tag: str) -> Dict[str, object]:
    solution = SOLVERS[tag]()
    config = None
    if solution.config is not None:
        config = {
            "theta1": _angle12(solution.config.theta1),
            "theta2": _angle12(solution.config.theta2),
            "theta3": _angle12(solution.config.theta1),
            "theta4": _angle12(solution.config.theta4),
        }
    condition = None
    if solution.mass_condition is not None:
        condition = {
            "equalities": list(solution.mass_condition.equalities),
            "ratios": list(solution.mass_condition.ratios),
            "sample_mus": [_num12(m) for m in solution.mass_condition.sample.mus],
        }
    certificate = {
        "max_residual": _num12(solution.certificate.max_residual),
        "grid_min": _num12(solution.certificate.grid_min),
        "grid_points": solution.certificate.grid_points,
        "description": solution.certificate.description,
    }
    rejected = [
        {
            "label": branch.label,
            "reason": branch.reason,
            "evidence": {k: _num12(branch.evidence[k]) for k in sorted(branch.evidence)},
        }
        for branch in solution.rejected
    ]
    return {
        "tag": solution.theorem_tag,
        "exists": solution.exists,
        "config": config,
        "mass_condition": condition,
        "certificate": certificate,
        "rejected": rejected,
    }


def cmd_theorem(args: argparse.Namespace) -> int:
    data = _case_data(args.tag)
    manifest = RunManifest(
        command="theorem",
        parameters={"tag": args.tag},
        tolerance_set={
            "case_width_tol": ROOT_WIDTH_TOL,
            "residual_gate": RESIDUAL_GATE,
        },
    )
    if args.format == "json":
        with _target(args.out) as fh:
            fh.write(_json_text(manifest, data))
        return 0
    rows: List[List[object]] = [["tag", data["tag"]], ["exists", data["exists"]]]
    if data["config"] is not None:
        for key in ("theta1", "theta2", "theta3", "theta4"):
            rows.append([key, format(data["config"][key], ".12f")])
    if data["mass_condition"] is not None:
        rows.append(["mass_equalities", "; ".join(data["mass_condition"]["equalities"])])
        rows.append(["mass_ratios", "; ".join(data["mass_condition"]["ratios"])])
        rows.append(
            ["sample_mus", " ".join(_fmt(m) for m in data["mass_condition"]["sample_mus"])]
        )
    cert = data["certificate"]
    rows.append(["certificate_max_residual", cert["max_residual"]])
    rows.append(["certificate_grid_min", cert["grid_min"]])
    rows.append(["certificate_grid_points", cert["grid_points"]])
    rows.append(["certificate_description", cert["description"]])
    rows.append(["rejected_count", len(data["rejected"])])
    for i, branch in enumerate(data["rejected"], start=1):
        rows.append([f"rejected_{i}_label", branch["label"]])
        rows.append([f"rejected_{i}_reason", branch["reason"]])
        evidence = "; ".join(f"{k} = {_fmt(v)}" for k, v in branch["evidence"].items())
        rows.append([f"rejected_{i}_evidence", evidence])
    _emit_records(args, manifest, ("field", "value"), rows)
    return 0


def _parse_range(raw: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like a:b, got {raw!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {raw!r}")
    if not lo < hi:
        raise ValueError(f"range needs a < b, got {raw!r}")
    return lo, hi


def cmd_trace(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.theta2_range)
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    import numpy as np
    grid = [float(t) for t in np.linspace(lo, hi, args.steps)]
    points = trace_curve(args.region, grid, width_tol=ROOT_WIDTH_TOL)
    manifest = RunManifest(
        command="trace",
        parameters={
            "region": args.region,
            "range": args.theta2_range,
            "steps": args.steps,
        },
        tolerance_set={
            "root_width_tol": ROOT_WIDTH_TOL,
            "trace_residual_gate": TRACE_RESID_GATE,
        },
    )
    header = ("theta1", "theta2", "theta4", "lambda", "r_sum", "r_diff", "degenerate")
    rows = (
        (p.theta1, p.theta2, p.theta4, p.mass_ratio, p.r_sum, p.r_diff, p.degenerate)
        for p in points
    )
    _emit_records(args, manifest, header, rows)
    return 0


def _finite_floats(values: List[object]) -> Optional[List[float]]:
    """The entries as floats, or None when any is a boolean, not a JSON
    number, or not finite as a float."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        return None
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        return None
    return floats if all(math.isfinite(v) for v in floats) else None


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.config_file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError('input must be a JSON object with "thetas" and "mus"')
    thetas_raw = payload.get("thetas")
    mus_raw = payload.get("mus")
    if not isinstance(thetas_raw, list) or not isinstance(mus_raw, list):
        raise ValueError('input must provide "thetas" and "mus" as lists')
    thetas = _finite_floats(thetas_raw)
    mus = _finite_floats(mus_raw)
    if thetas is None or mus is None:
        raise ValueError("thetas and mus must be lists of finite numbers")
    if len(thetas) != len(mus) or len(thetas) < 3:
        raise ValueError("need matching lists of at least 3 angles and masses")
    if any(t <= 0.0 for t in thetas) or any(m <= 0.0 for m in mus):
        raise ValueError("positivity violated: angles and masses must be strictly positive")
    total = math.fsum(thetas)
    deviation = abs(total - TWO_PI)
    if deviation > VERIFY_RENORM_LIMIT:
        raise ValueError(
            f"angle sum violated: |sum - 2*pi| = {deviation:.3e} exceeds "
            f"{VERIFY_RENORM_LIMIT:.0e}"
        )
    if deviation > ANGLE_SUM_TOL:
        print(
            f"warning: angle sum off by {deviation:.3e}; renormalizing",
            file=sys.stderr,
        )
        scale = TWO_PI / total
        thetas = [t * scale for t in thetas]
    residuals = residual_general(AngleConfig(tuple(thetas)), MassVector(tuple(mus)))
    worst = max(abs(r) for r in residuals)
    print(f"max |residual| = {worst:.12g}")
    if worst < VERIFY_THRESHOLD:
        print(f"PASS (threshold {VERIFY_THRESHOLD:.0e})")
        return 0
    print(f"FAIL (threshold {VERIFY_THRESHOLD:.0e})")
    return 1


def cmd_special_points(args: argparse.Namespace) -> int:
    catalog = build_catalog()
    manifest = RunManifest(
        command="special-points",
        parameters={},
        tolerance_set={
            "catalog_tol": CATALOG_TOL,
            "point_width_tol": ROOT_WIDTH_TOL,
        },
    )
    header = (
        "label",
        "theta1",
        "theta2",
        "ref_theta1",
        "ref_theta2",
        "delta",
        "degenerate",
        "vanishing",
        "theorem_tag",
        "note",
    )
    rows = ([getattr(p, key) for key in header] for p in catalog.points)
    _emit_records(args, manifest, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coorbital",
        description="Symmetric central configurations of a four-satellite "
        "coorbital ring: kernel tables, degenerate-case solvers, curve "
        "tracing, and configuration verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="tabulate f, f', f'' on a uniform grid")
    p_kernel.add_argument("--steps", type=int, default=1000, help="grid rows (default 1000)")
    p_kernel.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kernel.add_argument("--out", default=None, help="output path (default stdout)")
    p_kernel.set_defaults(func=cmd_kernel)

    p_theorem = sub.add_parser("theorem", help="solve one degenerate case")
    p_theorem.add_argument("--tag", required=True, choices=tuple(SOLVERS))
    p_theorem.add_argument("--format", choices=("csv", "json"), default="json")
    p_theorem.add_argument("--out", default=None)
    p_theorem.set_defaults(func=cmd_theorem)

    p_trace = sub.add_parser("trace", help="trace curve points across a theta2 grid")
    p_trace.add_argument("--region", required=True, choices=("D1", "D2", "D3"))
    p_trace.add_argument(
        "--range", required=True, dest="theta2_range", metavar="A:B",
        help="inclusive theta2 range a:b",
    )
    p_trace.add_argument("--steps", type=int, required=True, help="grid points in the range")
    p_trace.add_argument("--format", choices=("csv", "json"), default="csv")
    p_trace.add_argument("--out", default=None)
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="check a configuration file")
    p_verify.add_argument("config_file", help='JSON file {"thetas": [...], "mus": [...]}')
    p_verify.set_defaults(func=cmd_verify)

    p_special = sub.add_parser("special-points", help="recompute the special-point catalog")
    p_special.add_argument("--format", choices=("csv", "json"), default="csv")
    p_special.add_argument("--out", default=None)
    p_special.set_defaults(func=cmd_special_points)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoorbitalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), 2)


if __name__ == "__main__":
    sys.exit(main())
