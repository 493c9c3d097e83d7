#!/usr/bin/env python3
"""Benchmark of the coorbital command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads are defined in ``workloads.py``. One process drives the CLI,
one invocation at a time, in two ways: as cold ``python -m coorbital``
subprocesses (started by the small helper in ``launcher.py``, so that
their ``ru_maxrss`` is their own), and in process through
``coorbital.cli.main`` with output to a temporary file. Every output is checked by ``oracle.py`` and its
bytes compared with the cold subprocess's stdout.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs in-process passes with and without the hooks of
``tracing.py`` and reports the per-layer metrics. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable report. Spans and
a full report (including the sha256 of every output) are written under
``.bench_out/`` in the checkout.

The package is imported from ``src/`` of the checkout and run with the
default settings: ``COORBITAL_*`` variables are removed from the
environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import oracle
import workloads
from launcher import Launcher
from tracing import Hooks, Tracer, absent_metrics, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
MIN_PASSES = 2
CHILD_TIMEOUT = 120.0
KERNEL_CHECK_STRIDE = 97
IMPORT_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import coorbital\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, coorbital.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- set-up


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COORBITAL_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_package():
    if not (SRC / "coorbital" / "__init__.py").is_file():
        raise BenchError(f"no coorbital package under {SRC}; run from a checkout of the repository")
    for key in [k for k in os.environ if k.startswith("COORBITAL_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import coorbital
    import coorbital.cli

    if Path(coorbital.__file__).resolve().parent != (SRC / "coorbital").resolve():
        raise BenchError(f"imported coorbital from {coorbital.__file__}, not from {SRC}")
    return coorbital


def metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(coorbital) -> dict:
    import mpmath
    import numpy

    try:
        from coorbital import _kernels  # noqa: F401

        compiled = "importable"
    except ImportError:
        compiled = "not importable"
    return {
        "backend": getattr(coorbital, "BACKEND", "absent"),
        "compiled_backend": compiled,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
    }


def time_imports(repeats: int) -> List[tuple]:
    """(numpy seconds, coorbital-on-top seconds) of fresh interpreters;
    one untimed import first writes the bytecode caches."""
    out = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"import coorbital failed in a fresh interpreter:\n{proc.stderr}")
        numpy_s, own_s, where = proc.stdout.split()
        if Path(where).resolve().parent != (SRC / "coorbital").resolve():
            raise BenchError(f"fresh interpreter imported coorbital from {where}")
        if i:
            out.append((float(numpy_s), float(own_s)))
    return out


# ---------------------------------------------------------------- running


class Runner:
    """Runs invocations cold and warm, checks every output once per
    distinct byte string, and keeps one record per operation."""

    def __init__(self, coorbital, invocations, workdir: Path, kernel_oracle, launcher: Launcher):
        self.cli = coorbital.cli
        self.launcher = launcher
        self.invocations = invocations
        self.workdir = workdir
        self.kernel_oracle = kernel_oracle
        self.records: List[dict] = []
        self._checked: Dict[tuple, list] = {}
        self._rows: Dict[str, int] = {}
        self._clearers = self._cache_clearers()

    @staticmethod
    def _cache_clearers():
        """cache_clear of build_catalog, critical_points and the SOLVERS
        entries, whichever still exist; taken before any hook is
        installed so they reach the caches themselves."""
        import importlib

        targets = []
        for module, name in (("coorbital.catalog", "build_catalog"),
                             ("coorbital.kernel", "critical_points"),
                             ("coorbital.theorems", "SOLVERS")):
            try:
                value = getattr(importlib.import_module(module), name, None)
            except ImportError:
                continue
            targets += list(value.values()) if isinstance(value, dict) else [value]
        return [fn.cache_clear for fn in targets if hasattr(fn, "cache_clear")]

    def _check(self, index: int, rc, data: bytes) -> list:
        inv = self.invocations[index]
        key = (index, rc, hashlib.sha256(data).hexdigest())
        if key in self._checked:
            return self._checked[key]
        try:
            text = data.decode("utf-8")
            if inv.check == "verify":
                problems = oracle.check_verify(inv.params, rc, text)
            elif rc != 0:
                problems = [oracle.Problem("contract", f"{inv.label}: exit code {rc}")]
            elif inv.check == "kernel":
                problems = oracle.check_kernel(inv.params, text, self.kernel_oracle)
            elif inv.check == "trace":
                problems = oracle.check_trace(inv.params, text)
            elif inv.check == "theorem":
                problems = oracle.check_theorem(inv.params, text)
            else:
                problems = oracle.check_special_points(inv.params, text)
            if inv.check != "verify" and key[2] not in self._rows:
                self._rows[key[2]] = oracle.count_rows(text, inv.fmt)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [oracle.Problem("contract", f"{inv.label}: unreadable output ({exc!r})")]
        self._checked[key] = problems
        return problems

    def _record(self, index, mode, pass_no, rc, data, seconds, extra=None):
        rec = {
            "inv": index, "mode": mode, "pass": pass_no, "rc": rc,
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "seconds": seconds, "problems": list(self._check(index, rc, data)),
        }
        rec.update(extra or {})
        self.records.append(rec)
        return rec

    def cold(self, index: int, pass_no: int) -> dict:
        inv = self.invocations[index]
        out_path = self.workdir / f"cold-{index}.out"
        res = self.launcher.run([sys.executable, "-m", "coorbital", *inv.argv], str(ROOT), _child_env(),
                                str(out_path), str(self.workdir / "cold.err"), CHILD_TIMEOUT)
        return self._record(index, "cold", pass_no, res["rc"], out_path.read_bytes(), res["wall"], {
            "cpu": res["cpu"],
            "rss_mb": res["maxrss_kb"] / 1024.0,
        })

    def warm(self, index: int, pass_no: int, mode: str = "warm") -> dict:
        inv = self.invocations[index]
        out_path = self.workdir / f"warm-{index}.out"
        if out_path.exists():
            out_path.unlink()
        argv = list(inv.argv)
        to_file = inv.check != "verify"
        if to_file:
            argv += ["--out", str(out_path)]
        for clear in self._clearers:
            clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = "crash: " + traceback.format_exc(limit=3)
            seconds = perf_counter() - t0
        if to_file:
            data = out_path.read_bytes() if out_path.exists() else b""
        else:
            data = stdout.getvalue().encode("utf-8")
        return self._record(index, mode, pass_no, rc, data, seconds)

    def rows(self, rec: dict) -> int:
        return self._rows.get(rec["sha256"], 0)

    def pass_(self, kind: str, pass_no: int) -> List[dict]:
        gc.collect()
        if kind == "cold":
            return [self.cold(i, pass_no) for i in range(len(self.invocations))]
        return [self.warm(i, pass_no, kind) for i in range(len(self.invocations))]

    def finish(self) -> None:
        """Byte parity: every output must equal the first cold stdout of
        the same invocation (or its first output, if none ran cold)."""
        reference: Dict[int, str] = {}
        for rec in sorted(self.records, key=lambda r: r["mode"] != "cold"):
            reference.setdefault(rec["inv"], rec["sha256"])
        for rec in self.records:
            if rec["sha256"] != reference[rec["inv"]]:
                rec["problems"].append(oracle.Problem(
                    "contract", f"{self.invocations[rec['inv']].label}: {rec['mode']} bytes differ "
                    f"from the cold subprocess stdout"))


def schedule(seconds: float, kinds, run_pass) -> Dict[str, List[float]]:
    """Alternate pass kinds until ``seconds`` are used, giving each kind
    about the same time; each kind runs at least MIN_PASSES times and
    no pass starts that its previous duration says would overrun."""
    walls: Dict[str, List[float]] = {k: [] for k in kinds}
    deadline = perf_counter() + seconds
    pass_no = 0
    while True:
        short = [k for k in kinds if len(walls[k]) < MIN_PASSES]
        if short:
            kind = min(short, key=lambda k: (len(walls[k]), kinds.index(k)))
        else:
            left = deadline - perf_counter()
            fits = [k for k in kinds if max(walls[k]) <= left]
            if not fits:
                break
            kind = min(fits, key=lambda k: sum(walls[k]))
        pass_no += 1
        t0 = perf_counter()
        run_pass(kind, pass_no)
        walls[kind].append(perf_counter() - t0)
    return walls


def tail(values: List[float]) -> tuple:
    """(value, percentile, samples beyond it): the highest percentile
    with at least ten samples beyond it; with ten samples or fewer there
    is none, and the maximum is reported with nothing beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def tally(records: List[dict], check_ran: bool, check_problems: list) -> tuple:
    """(attempted, failed, correct). Each CLI invocation is one
    operation, and so is the backend check where it compared anything.
    An operation fails on any problem; the run's output is incorrect
    only on a contract problem (see oracle.py)."""
    attempted = len(records) + check_ran
    failed = sum(1 for r in records if r["problems"]) + bool(check_problems)
    correct = not check_problems and not any(
        p.kind == "contract" for r in records for p in r["problems"])
    return attempted, failed, correct


def backend_check(workload: str, invocations) -> tuple:
    """Bitwise agreement of the compiled and pure kernel backends on this
    workload's inputs, as ``benchmarks/bench_kernels.py`` checks it.
    Returns (what was compared, what was not, problems found)."""
    import importlib
    import math

    import numpy as np

    try:
        pure = importlib.import_module("coorbital._kernels_py")
        compiled = importlib.import_module("coorbital._kernels")
    except ImportError as exc:
        return [], [f"compiled and pure backends not compared ({exc})"], []
    compared, problems = [], []
    if workload == "trace-sweep":
        compared.append("compiled vs pure curve_scan on every 20th trace line")
        for inv in invocations:
            p = inv.params
            for theta2 in np.linspace(p["lo"], p["hi"], p["steps"])[::20]:
                theta2 = float(theta2)
                lo, hi, n = 1e-6, math.pi - 0.5 * theta2 - 1e-6, 4000
                if list(compiled.curve_scan(theta2, lo, hi, n)) != list(pure.curve_scan(theta2, lo, hi, n)):
                    problems.append(f"compiled and pure curve_scan differ at theta2={theta2!r}")
    elif workload == "kernel-table":
        compared.append("compiled vs pure f, f', f'' on every 10th kernel row")
        steps = invocations[0].params["steps"]
        step = (2.0 * math.pi - 2e-4) / steps
        for k in range(0, steps, 10):
            t = 1e-4 + k * step
            for name in ("f_eval", "f_prime", "f_double_prime"):
                if getattr(compiled, name)(t) != getattr(pure, name)(t):
                    problems.append(f"compiled and pure {name} differ at theta={t!r}")
    return compared, [], problems[:5]


# ---------------------------------------------------------------- report


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run(args) -> int:
    coorbital = load_package()
    units = metric_spec()[args.trace]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    launcher = Launcher()
    try:
        env = environment(coorbital)
        tracer = Tracer()
        hooks = Hooks(tracer) if args.trace else None
        if hooks:
            hooks.install()
        try:
            invocations = workloads.build(args.workload, args.seed, workdir)
        finally:
            if hooks:
                hooks.remove()
        nullspace_s = layer_metrics(tracer)["model.nullspace_s"]
        tracer.reset()
        runner = Runner(coorbital, invocations, workdir,
                        oracle.KernelOracle(workloads.KERNEL_STEPS, KERNEL_CHECK_STRIDE), launcher)

        imports = time_imports(SETUP_REPEATS)
        compared, skipped, check_problems = backend_check(args.workload, invocations)
        check_note = "; ".join(compared + skipped) or "nothing to compare on this workload"
        runner.pass_("warmup", 0)

        layers: List[dict] = []
        spans: List[dict] = []
        if args.trace:
            def run_pass(kind, pass_no):
                if kind == "plain":
                    runner.pass_("warm", pass_no)
                    return
                tracer.reset()
                hooks.install()
                try:
                    for i in range(len(invocations)):
                        tracer.op = f"pass{pass_no}.{i}"
                        runner.warm(i, pass_no, "traced")
                finally:
                    hooks.remove()
                layers.append(layer_metrics(tracer))
                spans.extend(tracer.dump())

            walls = schedule(args.seconds, ["plain", "traced"], run_pass)
        else:
            walls = schedule(args.seconds, ["cold", "warm"], runner.pass_)
        runner.finish()

        records = runner.records
        attempted, failed, correct = tally(records, bool(compared), check_problems)

        def passes(mode):
            out: Dict[int, List[dict]] = {}
            for r in records:
                if r["mode"] == mode:
                    out.setdefault(r["pass"], []).append(r)
            return list(out.values())

        notes: Dict[str, str] = {}
        values: Dict[str, Optional[float]] = {}
        if args.trace:
            plain = [sum(r["seconds"] for r in p) for p in passes("warm")]
            traced = [sum(r["seconds"] for r in p) for p in passes("traced")]
            for name in layers[0]:
                values[name] = statistics.median(m[name] for m in layers)
                if isinstance(layers[0][name], int) and values[name] == int(values[name]):
                    values[name] = int(values[name])
            one_pass = passes("traced")[0]
            values.update({
                "import.numpy_s": statistics.median(i[0] for i in imports),
                "import.coorbital_s": statistics.median(i[1] for i in imports),
                "model.nullspace_s": nullspace_s,
                "cli.rows": sum(runner.rows(r) for r in one_pass),
                "cli.output_bytes": sum(r["bytes"] for r in one_pass),
                "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
            })
            for name in absent_metrics(values, hooks.absent_groups):
                values[name] = None
            notes["trace.overhead_ratio"] = (
                f"median of {len(traced)} traced / median of {len(plain)} untraced warm passes")
            notes["model.nullspace_s"] = "input generation; the CLI does not call it"
        else:
            cold = passes("cold")
            warm = [sum(r["seconds"] for r in p) for p in passes("warm")]
            tail_value, pct, beyond = tail(warm)
            values = {
                "setup_s": statistics.median(a + b for a, b in imports),
                "cold_cli_s": statistics.median(sum(r["seconds"] for r in p) for p in cold),
                "cold_cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in cold),
                "warm_s": statistics.median(warm),
                "warm_tail_s": tail_value,
                "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in cold),
                "pass_ratio": (attempted - failed) / attempted,
            }
            notes = {
                "setup_s": f"median of {len(imports)} fresh interpreters",
                "cold_cli_s": f"median of {len(cold)} cold passes of {len(invocations)} launches",
                "cold_cpu_s": f"median of {len(cold)} cold passes",
                "warm_s": f"median of {len(warm)} warm passes",
                "warm_tail_s": f"p{pct:.1f} of {len(warm)} warm passes, {beyond} beyond it"
                + ("" if beyond else " (ten or fewer passes: maximum)"),
                "peak_rss_mb": "largest ru_maxrss of a CLI process in a cold pass, median over passes",
                "pass_ratio": f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}",
            }
        missing = [n for n in units if n not in values]
        if missing:
            raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"run {args.seconds} s  passes " + ", ".join(f"{k} {len(v)}" for k, v in walls.items()))
        print("environment " + json.dumps(env, sort_keys=True))
        print(f"backend check: {check_note}" + (f"; FAILED: {check_problems}" if check_problems else ""))
        if hooks and hooks.missing:
            print("hooks missing (their layers are absent): " + ", ".join(hooks.missing))
        for name, unit in units.items():
            print(f"  {name:<28} {_fmt(values[name]):>14} {unit:<6} {notes.get(name, '')}")
        if not args.trace:
            print(f"  {'failed_ratio':<28} {_fmt(failed / attempted):>14} {'ratio':<6} "
                  f"{failed} failed of {attempted} operations")
        for i, inv in enumerate(invocations):
            digest = next(r["sha256"] for r in records if r["inv"] == i)
            print(f"  sha256 {digest}  {inv.label}")
        seen: Dict[tuple, int] = {}
        for r in records:
            for p in r["problems"]:
                seen[(p.kind, p.text)] = seen.get((p.kind, p.text), 0) + 1
        for (kind, text), count in seen.items():
            print(f"  {kind} problem, {count} operations: {text}")

        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": env, "backend_check": check_note,
            "backend_check_problems": check_problems,
            "invocations": [{"label": inv.label, "argv": inv.argv} for inv in invocations],
            "records": [dict(r, problems=[p.__dict__ for p in r["problems"]]) for r in records],
            "metrics": values, "notes": notes,
            "hooks_missing": hooks.missing if hooks else [],
        }
        (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
        if args.trace:
            (OUT / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run_all(args) if args.workload == "all" else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
