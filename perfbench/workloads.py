"""Seeded inputs for the four benchmark workloads.

A workload is a fixed list of CLI invocations, one pass. The seed picks
the inputs (ranges, ring jitter, curve points, order); the amount of
work per pass does not depend on it.

- trace-sweep: one ``trace`` per band, about 200 theta2 lines of 4000
  cells each, over a seed-jittered sub-range, formats alternating. The
  mechanism workload for the grid scan and the root finder.
- kernel-table: ``kernel --steps 100000`` as CSV and as JSON. The
  mechanism workload for the emitter and for memory; it bypasses the
  scan and the root finder.
- solve-catalog: ``theorem`` for all six tags and ``special-points``,
  both formats, plus ``verify`` on 4-rings: central ones built from
  seed-chosen curve points and perturbed copies. About 2-30 ms of work
  per launch, so start-up dominates; the scalar scan path runs here.
- verify-ring: ``verify`` on exact regular rings with equal masses
  (central by symmetry) and on jittered rings of 512 and 1024
  satellites. The only workload that reaches the O(N^2) residual.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from oracle import line_roots

WORKLOADS = ("trace-sweep", "kernel-table", "solve-catalog", "verify-ring")

TRACE_STEPS = 200
# base theta2 sub-range per band; the seed moves each end inward by up
# to JITTER, so the line count per trace stays fixed
TRACE_RANGES = {"D1": (0.1, 1.0), "D2": (1.1, 3.1), "D3": (3.2, 5.2)}
TRACE_JITTER = 0.02
KERNEL_STEPS = 100000
TAGS = ("T32", "T33", "T34", "T35", "T36", "T37")
# theta2 windows for the central 4-rings: D2 away from the r_diff pole
# near 2.41, D3 above the arc's end at theta2 = 3.6026; each line has
# exactly one in-band crossing
RING4_WINDOWS = (("D2", 1.2, 2.2), ("D3", 3.8, 4.8))
RING4_SHIFT = 1e-3
RING_SIZES = (512, 1024)
RING_JITTER = 0.2


@dataclass
class Invocation:
    label: str
    argv: List[str]
    check: str
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def fmt(self) -> str:
        return str(self.params.get("format", "text"))


def _verify(label: str, path: Path, thetas, mus, central: bool) -> Invocation:
    path.write_text(json.dumps({"thetas": thetas, "mus": mus}) + "\n", encoding="utf-8")
    return Invocation(
        label, ["verify", str(path.resolve())], "verify",
        {"thetas": thetas, "mus": mus, "central": central},
    )


def trace_sweep(rng: random.Random, workdir: Path) -> List[Invocation]:
    first = rng.choice(("csv", "json"))
    other = "json" if first == "csv" else "csv"
    out = []
    for i, region in enumerate(("D1", "D2", "D3")):
        base_lo, base_hi = TRACE_RANGES[region]
        lo = round(base_lo + TRACE_JITTER * rng.random(), 6)
        hi = round(base_hi - TRACE_JITTER * rng.random(), 6)
        fmt = first if i % 2 == 0 else other
        out.append(Invocation(
            f"trace {region} {lo}:{hi} {fmt}",
            ["trace", "--region", region, "--range", f"{lo}:{hi}",
             "--steps", str(TRACE_STEPS), "--format", fmt],
            "trace",
            {"region": region, "lo": lo, "hi": hi, "steps": TRACE_STEPS, "format": fmt},
        ))
    return out


def kernel_table(rng: random.Random, workdir: Path) -> List[Invocation]:
    fmts = ["csv", "json"]
    rng.shuffle(fmts)
    return [
        Invocation(f"kernel {KERNEL_STEPS} {fmt}",
                   ["kernel", "--steps", str(KERNEL_STEPS), "--format", fmt],
                   "kernel", {"steps": KERNEL_STEPS, "format": fmt})
        for fmt in fmts
    ]


def curve_point(region: str, theta2: float) -> float:
    """The in-band curve crossing on one theta2 line, found without the
    package."""
    found, ambiguous = line_roots(region, theta2)
    if len(found) != 1 or ambiguous:
        raise RuntimeError(f"expected one clear {region} crossing at theta2={theta2}, found {len(found)}")
    return float(found[0])


def ring4_masses(theta1: float, theta2: float) -> List[float]:
    """Masses of a symmetric 4-ring from the package's null-space solver.

    Looked up through the module at call time so that a traced run sees
    the call."""
    import coorbital.model as model

    sym = model.SymmetricConfig.from_pair(theta1, theta2)
    masses = model.positive_null_masses(model.mass_matrix(sym)).masses
    if masses is None:
        raise RuntimeError(f"no positive masses at ({theta1}, {theta2})")
    return list(masses.mus)


def solve_catalog(rng: random.Random, workdir: Path) -> List[Invocation]:
    out = []
    for tag in TAGS:
        for fmt in ("json", "csv"):
            out.append(Invocation(f"theorem {tag} {fmt}",
                                  ["theorem", "--tag", tag, "--format", fmt],
                                  "theorem", {"tag": tag, "format": fmt}))
    for fmt in ("csv", "json"):
        out.append(Invocation(f"special-points {fmt}",
                              ["special-points", "--format", fmt],
                              "special-points", {"format": fmt}))
    for region, lo, hi in RING4_WINDOWS:
        theta2 = lo + (hi - lo) * rng.random()
        theta1 = curve_point(region, theta2)
        mus = ring4_masses(theta1, theta2)
        thetas = [theta1, theta2, theta1, 2.0 * math.pi - 2.0 * theta1 - theta2]
        out.append(_verify(f"verify 4-ring {region} theta2={theta2:.6f} central",
                           workdir / f"ring4-{region}.json", thetas, mus, True))
        moved = theta1 + RING4_SHIFT
        thetas = [moved, theta2, moved, 2.0 * math.pi - 2.0 * moved - theta2]
        out.append(_verify(f"verify 4-ring {region} theta2={theta2:.6f} perturbed",
                           workdir / f"ring4-{region}-perturbed.json", thetas, mus, False))
    rng.shuffle(out)
    return out


def verify_ring(rng: random.Random, workdir: Path) -> List[Invocation]:
    out = []
    for n in RING_SIZES:
        regular = [2.0 * math.pi / n] * n
        out.append(_verify(f"verify regular ring N={n}", workdir / f"ring{n}.json",
                           regular, [1.0] * n, True))
        gaps = [1.0 + RING_JITTER * (2.0 * rng.random() - 1.0) for _ in range(n)]
        scale = 2.0 * math.pi / math.fsum(gaps)
        gaps = [g * scale for g in gaps[:-1]]
        gaps.append(2.0 * math.pi - math.fsum(gaps))
        out.append(_verify(f"verify jittered ring N={n}", workdir / f"ring{n}-jittered.json",
                           gaps, [1.0] * n, False))
    rng.shuffle(out)
    return out


BUILDERS: Dict[str, Callable[[random.Random, Path], List[Invocation]]] = {
    "trace-sweep": trace_sweep,
    "kernel-table": kernel_table,
    "solve-catalog": solve_catalog,
    "verify-ring": verify_ring,
}


def build(workload: str, seed: int, workdir: Path) -> List[Invocation]:
    """The invocations of one pass of ``workload`` for ``seed``; ring
    files are written under ``workdir`` and named by absolute path, so
    the CLI finds them whatever its working directory."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
