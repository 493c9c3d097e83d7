"""Spans and counters around coorbital's layers, installed at run time.

The package source is left untouched: ``Hooks.install`` rebinds public
names in the package's modules (and the entries of ``SOLVERS``) to
wrappers that record into a ``Tracer``, and ``Hooks.remove`` puts the
originals back. A name that a later refactor deleted or renamed is
reported as missing, and every per-layer metric that depends on it is
reported as absent (``None``) rather than as zero.

A span has a name, start, end, parent and the id of the CLI invocation
it belongs to. Self time is a span's duration minus the time its child
spans and counted calls cover. Hot scalar kernel calls are counted
(calls and total time) instead of getting a span each.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# span fields: name, start, end, parent index (-1 for none), op id,
# time covered by children, extra (a count the layer reports, or None)
NAME, START, END, PARENT, OP, CHILD, EXTRA = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, List[float]] = {}
        self.op = ""

    def reset(self) -> None:
        # cleared in place: installed wrappers hold these containers
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def span(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tally = counts.setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += dt
                if stack:
                    spans[stack[-1]][CHILD] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> List[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op": s[OP], "self": s[END] - s[START] - s[CHILD], "extra": s[EXTRA]}
            for s in self.spans
        ]


def _len(args, result):
    return len(result)


def _refine(args, result):
    return (getattr(result, "iterations", 0), bool(getattr(result, "converged", True)))


def _trace_lines(args, result):
    return (len(args[1]), len(result))


def _residual_terms(args, result):
    n = len(result)
    return n * (n - 1)


# layer group -> hook targets (module, attribute, span or count name,
# extra). An attribute "SOLVERS[T32]" names a dict entry.
GROUPS: Dict[str, List[Tuple[str, str, str, Optional[Callable]]]] = {
    "backend": [("coorbital.backend", "curve_scan", "backend.scan", _len)],
    "extract": [
        ("coorbital.curve", "brackets_from_values", "rootfind.extract", _len),
        ("coorbital.rootfind", "brackets_from_values", "rootfind.extract", _len),
    ],
    "scan": [
        ("coorbital.catalog", "scan_brackets", "rootfind.scan", None),
        ("coorbital.theorems", "scan_brackets", "rootfind.scan", None),
    ],
    "refine": [
        (mod, "bracket_root", "rootfind.refine", _refine)
        for mod in ("coorbital.curve", "coorbital.catalog", "coorbital.theorems", "coorbital.kernel")
    ],
    "kernel": [
        ("coorbital.cli", name, "kernel.scalar", None)
        for name in ("f_eval", "f_prime", "f_double_prime")
    ] + [("coorbital.theorems", "f_eval", "kernel.scalar", None)],
    "curve": [
        ("coorbital.cli", "trace_curve", "curve.trace", _trace_lines),
        ("coorbital.curve", "curve_point", "curve.classify", None),
    ],
    "theorems": [
        ("coorbital.theorems", f"SOLVERS[{tag}]", "theorems.solve", None)
        for tag in ("T32", "T33", "T34", "T35", "T36", "T37")
    ] + [
        ("coorbital.catalog", name, "theorems.solve", None)
        for name in ("solve_T32", "solve_T33", "solve_T34", "solve_T36", "solve_T37")
    ] + [("coorbital.theorems", "solve_T32", "theorems.solve", None)],
    "catalog": [("coorbital.cli", "build_catalog", "catalog.build", None)],
    "nullspace": [("coorbital.model", "positive_null_masses", "model.nullspace", None)],
    "residual": [("coorbital.cli", "residual_general", "model.residual", _residual_terms)],
    "cli": [
        ("coorbital.cli", name, "cli.cmd", None)
        for name in ("cmd_kernel", "cmd_theorem", "cmd_trace", "cmd_verify", "cmd_special_points")
    ],
}


def _resolve(module: str, attr: str):
    """(container, key, current value) for a hook target, or None."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    if attr.endswith("]"):
        name, key = attr[:-1].split("[")
        table = getattr(mod, name, None)
        if isinstance(table, dict) and callable(table.get(key)):
            return table, key, table[key]
        return None
    value = getattr(mod, attr, None)
    return (mod, attr, value) if callable(value) else None


class Hooks:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self.absent_groups: set = set()
        self._saved: List[tuple] = []
        self._plan = []
        for group, targets in GROUPS.items():
            for module, attr, name, extra in targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}.{attr}")
                    self.absent_groups.add(group)
                else:
                    self._plan.append((found, name, extra))

    def install(self) -> None:
        for (container, key, original), name, extra in self._plan:
            if name == "kernel.scalar":
                wrapper = self.tracer.counted(name, original)
            else:
                wrapper = self.tracer.span(name, original, extra)
            self._saved.append((container, key, original))
            if isinstance(container, dict):
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    def remove(self) -> None:
        for container, key, original in reversed(self._saved):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._saved = []


def _ancestor(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans = tracer.spans
    by: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(i)

    def dur(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by.get(name, ()))

    def self_time(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] - spans[i][CHILD] for i in by.get(name, ()))

    def returned(name: str) -> List[int]:
        # a call that raised has no extra and counts only in the times
        return [i for i in by.get(name, ()) if spans[i][EXTRA] is not None]

    scan_nodes = sum(spans[i][EXTRA] for i in returned("backend.scan"))
    refines = [spans[i][EXTRA] for i in returned("rootfind.refine")]
    iters = [r[0] for r in refines]
    curve_roots = sum(1 for i in returned("rootfind.refine") if _ancestor(spans, i, "curve.trace"))
    lines = sum(spans[i][EXTRA][0] for i in returned("curve.trace"))
    kept = sum(spans[i][EXTRA][1] for i in returned("curve.trace"))
    scalar = tracer.counts.get("kernel.scalar", [0, 0.0])
    return {
        "backend.scan_nodes": scan_nodes,
        "backend.scan_s": dur("backend.scan"),
        "backend.ns_per_node": dur("backend.scan") / scan_nodes * 1e9 if scan_nodes else 0.0,
        "rootfind.brackets": sum(spans[i][EXTRA] for i in returned("rootfind.extract")),
        "rootfind.extract_s": dur("rootfind.extract"),
        "rootfind.scan_s": dur("rootfind.scan"),
        "rootfind.refine_calls": len(refines),
        "rootfind.refine_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "rootfind.refine_iters_max": max(iters, default=0),
        "rootfind.refine_s": dur("rootfind.refine"),
        "rootfind.unconverged": sum(1 for r in refines if not r[1]),
        "kernel.scalar_calls": scalar[0],
        "kernel.scalar_s": scalar[1],
        "curve.lines": lines,
        "curve.roots": curve_roots,
        "curve.points_kept": kept,
        "curve.kept_ratio": kept / curve_roots if curve_roots else 0.0,
        "curve.classify_s": dur("curve.classify"),
        "curve.self_s": self_time("curve.trace"),
        "theorems.solve_s": sum(
            spans[i][END] - spans[i][START] for i in by.get("theorems.solve", ())
            if not _ancestor(spans, i, "theorems.solve")),
        "catalog.build_s": dur("catalog.build"),
        "model.nullspace_s": dur("model.nullspace"),
        "model.residual_s": dur("model.residual"),
        "model.residual_terms": sum(spans[i][EXTRA] for i in returned("model.residual")),
        "cli.self_s": self_time("cli.cmd"),
    }


# per-layer metric -> hook groups it needs
REQUIRES = {
    "backend.": ("backend",),
    "rootfind.brackets": ("extract",),
    "rootfind.extract_s": ("extract",),
    "rootfind.scan_s": ("scan",),
    "rootfind.refine": ("refine",),
    "rootfind.unconverged": ("refine",),
    "kernel.": ("kernel",),
    # curve.roots counts the refinements made inside a trace
    "curve.": ("curve", "refine"),
    "theorems.": ("theorems",),
    "catalog.": ("catalog",),
    "model.nullspace": ("nullspace",),
    "model.residual": ("residual",),
    "cli.self_s": ("cli",),
}


def absent_metrics(names, absent_groups) -> set:
    out = set()
    for name in names:
        for prefix, groups in REQUIRES.items():
            if name.startswith(prefix) and any(g in absent_groups for g in groups):
                out.add(name)
    return out
