"""Tests of the benchmark's own output checks and layer hooks.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py

Real CLI output is produced in process on small inputs, shown to pass,
then corrupted; each corruption must surface as a failed operation.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from coorbital import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _failed(problems):
    """Outcome of one operation with these problems, as the run counts it."""
    attempted, failed, correct = run.tally([{"problems": problems}], False, [])
    return failed == 1, correct


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corrupted_trace_row_fails(fmt):
    params = {"region": "D1", "lo": 0.4, "hi": 0.6, "steps": 3, "format": fmt}
    rc, text = _cli(["trace", "--region", "D1", "--range", "0.4:0.6", "--steps", "3", "--format", fmt])
    assert rc == 0 and oracle.check_trace(params, text) == []
    first = oracle._records(text, fmt)[0]
    theta1 = first["theta1"]
    wrong = format(float(theta1) * (1.0 + 1e-6), ".12g")
    corrupted = text.replace(str(theta1), wrong, 1)
    assert corrupted != text
    problems = oracle.check_trace(params, corrupted)
    assert problems and _failed(problems) == (True, False)


def test_dropped_trace_row_fails():
    params = {"region": "D2", "lo": 1.2, "hi": 1.4, "steps": 3, "format": "csv"}
    rc, text = _cli(["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "3"])
    assert rc == 0 and oracle.check_trace(params, text) == []
    dropped = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    assert _failed(oracle.check_trace(params, dropped)) == (True, False)


@pytest.fixture()
def ring4(tmp_path):
    import workloads

    theta2 = 1.5
    theta1 = workloads.curve_point("D2", theta2)
    thetas = [theta1, theta2, theta1, 2.0 * math.pi - 2.0 * theta1 - theta2]
    mus = workloads.ring4_masses(theta1, theta2)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"thetas": thetas, "mus": mus}))
    return path, {"thetas": thetas, "mus": mus, "central": True}


def test_flipped_verify_verdict_fails(ring4):
    path, params = ring4
    rc, text = _cli(["verify", str(path)])
    assert rc == 0 and "PASS" in text
    assert oracle.check_verify(params, rc, text) == []
    flipped = text.replace("PASS", "FAIL")
    # the verdict now contradicts the printed residual and the exit code
    assert _failed(oracle.check_verify(params, rc, flipped)) == (True, False)
    assert _failed(oracle.check_verify(params, 1, flipped)) == (True, False)


def test_wrong_verdict_on_a_central_ring_fails_without_breaking_contract(tmp_path):
    # a regular ring with equal masses is central by symmetry, but its
    # float residual exceeds verify's absolute 1e-8 gate at this size
    n = 512
    params = {"thetas": [2.0 * math.pi / n] * n, "mus": [1.0] * n, "central": True}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"thetas": params["thetas"], "mus": params["mus"]}))
    rc, text = _cli(["verify", str(path)])
    problems = oracle.check_verify(params, rc, text)
    assert rc == 1 and [p.kind for p in problems] == ["verdict"]
    assert _failed(problems) == (True, True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wrong_kernel_value_fails(fmt):
    steps = 40
    rc, text = _cli(["kernel", "--steps", str(steps), "--format", fmt])
    kernel = oracle.KernelOracle(steps, 1)
    params = {"steps": steps, "format": fmt}
    assert rc == 0 and oracle.check_kernel(params, text, kernel) == []
    value = oracle._records(text, fmt)[7]["f_prime"]
    wrong = format(float(value) * (1.0 + 1e-9), ".12g")
    corrupted = text.replace(str(value), wrong, 1)
    assert corrupted != text
    assert _failed(oracle.check_kernel(params, corrupted, kernel)) == (True, False)


def test_theorem_and_catalog_outputs_pass_and_corruptions_fail():
    for tag in ("T32", "T35", "T37"):
        for fmt in ("csv", "json"):
            rc, text = _cli(["theorem", "--tag", tag, "--format", fmt])
            assert oracle.check_theorem({"tag": tag, "format": fmt}, text) == []
    rc, text = _cli(["theorem", "--tag", "T36"])
    theta1 = json.loads(text)["data"]["config"]["theta1"]
    moved = text.replace(repr(theta1), repr(round(theta1 + 1e-6, 12)), 1)
    assert oracle.check_theorem({"tag": "T36", "format": "json"}, moved)
    rc, text = _cli(["special-points"])
    assert oracle.check_special_points({"format": "csv"}, text) == []
    assert oracle.check_special_points({"format": "csv"}, text.replace("\nA,", "\nZ,", 1))


def test_traced_pass_counts_layers_and_restores_names():
    import coorbital.backend as backend

    original = backend.curve_scan
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    assert hooks.missing == []
    hooks.install()
    try:
        rc, text = _cli(["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "3"])
    finally:
        hooks.remove()
    assert backend.curve_scan is original
    layers = tracing.layer_metrics(tracer)
    assert layers["curve.lines"] == 3 and layers["backend.scan_nodes"] == 3 * 4001
    assert layers["curve.roots"] == layers["rootfind.refine_calls"] > 0
    assert 0.0 < layers["cli.self_s"] < sum(s[tracing.END] - s[tracing.START]
                                            for s in tracer.spans if s[tracing.NAME] == "cli.cmd")


def test_missing_hook_target_makes_its_layer_absent(monkeypatch):
    import coorbital.backend as backend

    monkeypatch.delattr(backend, "curve_scan")
    hooks = tracing.Hooks(tracing.Tracer())
    assert hooks.missing == ["coorbital.backend.curve_scan"]
    names = ["backend.scan_s", "backend.ns_per_node", "curve.lines", "cli.self_s"]
    assert tracing.absent_metrics(names, hooks.absent_groups) == {"backend.scan_s", "backend.ns_per_node"}


def test_hooked_call_that_raises_still_gives_layer_metrics(monkeypatch, tmp_path):
    from coorbital.exceptions import ConsistencyError, TraceResidualError

    def failing(error):
        def fn(*args, **kwargs):
            raise error("injected")
        return fn

    monkeypatch.setattr(cli, "trace_curve", failing(TraceResidualError))
    monkeypatch.setattr(cli, "residual_general", failing(ConsistencyError))
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"thetas": [2.0 * math.pi / 3] * 3, "mus": [1.0] * 3}))
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        trace_rc, _ = _cli(["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "3"])
        verify_rc, _ = _cli(["verify", str(ring)])
    finally:
        hooks.remove()
    assert (trace_rc, verify_rc) == (4, 3)
    layers = tracing.layer_metrics(tracer)
    assert layers["curve.lines"] == 0 and layers["model.residual_terms"] == 0
    assert layers["model.residual_s"] > 0.0 and layers["cli.self_s"] > 0.0
