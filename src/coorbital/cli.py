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
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .catalog import CATALOG_TOL, POINT_WIDTH_TOL, build_catalog
from .curve import TRACE_RESID_GATE, TRACE_WIDTH_TOL, trace_curve
from .exceptions import (
    CatalogMismatchError,
    ConsistencyError,
    CoorbitalError,
    NoSignChangeError,
    TraceResidualError,
)
from .kernel import TWO_PI, f_double_prime, f_eval, f_prime
from .model import ANGLE_SUM_TOL, AngleConfig, MassVector, residual_general
from .theorems import CASE_WIDTH_TOL, RESIDUAL_GATE, SOLVERS

KERNEL_GRID_DELTA = 1e-4
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
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
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


def _csv_text(manifest: RunManifest, header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    for line in _manifest_lines(manifest):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_text(manifest: RunManifest, data: object) -> str:
    payload = {"manifest": asdict(manifest), "data": data}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_records(
    args: argparse.Namespace,
    manifest: RunManifest,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write one record list as CSV or as JSON objects keyed by header."""
    if args.format == "json":
        data = [
            {key: _num12(v) if isinstance(v, float) else v for key, v in zip(header, row)}
            for row in rows
        ]
        _emit(_json_text(manifest, data), args.out)
    else:
        _emit(_csv_text(manifest, header, rows), args.out)


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
    rows = []
    for k in range(n):
        t = KERNEL_GRID_DELTA + k * step
        rows.append([t, f_eval(t), f_prime(t), f_double_prime(t)])
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
            "case_width_tol": CASE_WIDTH_TOL,
            "residual_gate": RESIDUAL_GATE,
        },
    )
    if args.format == "json":
        _emit(_json_text(manifest, data), args.out)
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
    _emit(_csv_text(manifest, ("field", "value"), rows), args.out)
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
    grid = [float(t) for t in np.linspace(lo, hi, args.steps)]
    points = trace_curve(args.region, grid, width_tol=TRACE_WIDTH_TOL)
    manifest = RunManifest(
        command="trace",
        parameters={
            "region": args.region,
            "range": args.theta2_range,
            "steps": args.steps,
        },
        tolerance_set={
            "root_width_tol": TRACE_WIDTH_TOL,
            "trace_residual_gate": TRACE_RESID_GATE,
        },
    )
    header = ("theta1", "theta2", "theta4", "lambda", "r_sum", "r_diff", "degenerate")
    rows = [
        [p.theta1, p.theta2, p.theta4, p.mass_ratio, p.r_sum, p.r_diff, p.degenerate]
        for p in points
    ]
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
        print("PASS (threshold 1e-08)")
        return 0
    print("FAIL (threshold 1e-08)")
    return 1


def cmd_special_points(args: argparse.Namespace) -> int:
    catalog = build_catalog()
    manifest = RunManifest(
        command="special-points",
        parameters={},
        tolerance_set={
            "catalog_tol": CATALOG_TOL,
            "point_width_tol": POINT_WIDTH_TOL,
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
    rows = [[getattr(p, key) for key in header] for p in catalog.points]
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
