"""CLI surface: formats, manifests, exit codes, determinism."""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coorbital import cli, floattext, kernel
from coorbital.bounds import KERNEL_MAX_STEPS, TRACE_MAX_STEPS
from coorbital.cli import main
from coorbital.exceptions import TraceResidualError

import table_data
from rings import jittered_gaps, periodic_gaps

PI = math.pi


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_csv(text):
    lines = text.split("\n")
    manifest = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    rows = list(csv.reader(body))
    return manifest, rows[0], rows[1:]


def write_config(tmp_path, thetas, mus, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"thetas": thetas, "mus": mus}))
    return str(path)


def test_kernel_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["kernel", "--steps", "1000"])
    assert code == 0
    manifest, header, rows = split_csv(out)
    assert manifest[0] == "# coorbital kernel"
    assert any(l.startswith("# tool_version = ") for l in manifest)
    assert header == ["theta", "f", "f_prime", "f_double_prime"]
    assert len(rows) == 1000
    nearest = min(rows, key=lambda r: abs(float(r[0]) - PI))
    assert abs(float(nearest[1])) < 1e-3
    assert abs(float(nearest[2]) + 0.875) < 1e-3


def test_kernel_requires_two_steps(capsys):
    code, _, err = run_cli(capsys, ["kernel", "--steps", "1"])
    assert code == 2
    assert "error:" in err


def test_kernel_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["kernel", "--steps", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"manifest", "data"}
    manifest = payload["manifest"]
    assert manifest["command"] == "kernel"
    assert manifest["parameters"] == {"steps": 5}
    assert set(manifest) == {"command", "parameters", "tool_version", "tolerance_set"}
    assert len(payload["data"]) == 5
    assert set(payload["data"][0]) == {"theta", "f", "f_prime", "f_double_prime"}


def test_outputs_are_deterministic(capsys, tmp_path):
    args = ["trace", "--region", "D2", "--range", "1.5:2.0", "--steps", "3"]
    code, first, _ = run_cli(capsys, args)
    assert code == 0
    code, second, _ = run_cli(capsys, args)
    assert first == second
    out_file = tmp_path / "trace.csv"
    code, stdout_text, _ = run_cli(capsys, args + ["--out", str(out_file)])
    assert code == 0
    assert stdout_text == ""
    assert out_file.read_bytes().decode("utf-8") == first
    assert "\r" not in out_file.read_bytes().decode("utf-8")


def test_theorem_json_fields(capsys):
    code, out, _ = run_cli(capsys, ["theorem", "--tag", "T32"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["tag"] == "T32"
    assert data["exists"] is True
    assert abs(data["config"]["theta1"] - 0.6281) < 5e-4
    assert data["config"]["theta3"] == data["config"]["theta1"]
    assert len(data["mass_condition"]["sample_mus"]) == 4
    assert data["certificate"]["max_residual"] < 1e-9


def test_theorem_nonexistence_payload(capsys):
    code, out, _ = run_cli(capsys, ["theorem", "--tag", "T35"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["exists"] is False
    assert data["config"] is None
    assert data["certificate"]["grid_min"] > 0.0
    assert data["certificate"]["grid_points"] == 2000


def test_theorem_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["theorem", "--tag", "T33", "--format", "csv"])
    assert code == 0
    _, header, rows = split_csv(out)
    assert header == ["field", "value"]
    fields = {row[0]: row[1] for row in rows}
    assert fields["tag"] == "T33"
    assert fields["exists"] == "true"
    assert float(fields["theta1"]) == pytest.approx(PI / 2.0, abs=1e-9)
    assert fields["rejected_count"] == "2"


@pytest.mark.parametrize(
    "region,rng,steps,expected",
    [
        ("D1", "0.1:1.0", 10, 20),
        ("D2", "1.1:3.1", 21, 21),
        ("D3", "3.7:5.2", 16, 16),
    ],
)
def test_trace_row_counts(capsys, region, rng, steps, expected):
    code, out, _ = run_cli(
        capsys, ["trace", "--region", region, "--range", rng, "--steps", str(steps)]
    )
    assert code == 0
    _, header, rows = split_csv(out)
    assert header == ["theta1", "theta2", "theta4", "lambda", "r_sum", "r_diff", "degenerate"]
    assert len(rows) == expected


def test_trace_matches_reference_angles(capsys):
    code, out, _ = run_cli(
        capsys, ["trace", "--region", "D3", "--range", "3.7:5.2", "--steps", "16"]
    )
    _, _, rows = split_csv(out)
    for row, ref in zip(rows, table_data.TABLE_D3):
        assert abs(float(row[1]) - ref[0]) < 1e-9
        assert abs(float(row[0]) - ref[1]) <= 1e-3


def test_trace_bad_range(capsys):
    code, _, err = run_cli(capsys, ["trace", "--region", "D1", "--range", "2:1", "--steps", "2"])
    assert code == 2
    assert "range" in err


def test_trace_region_band_mismatch(capsys):
    code, _, err = run_cli(
        capsys, ["trace", "--region", "D1", "--range", "1.5:2.0", "--steps", "2"]
    )
    assert code == 2


def test_trace_rejects_unknown_region():
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--region", "D9", "--range", "0.1:1.0", "--steps", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("raw", ["1.2:inf", "-inf:2"])
def test_trace_rejects_non_finite_range(raw):
    # a subprocess, so that a numpy warning on stderr is seen too
    out = subprocess.run(
        [sys.executable, "-m", "coorbital", "trace", "--region", "D2",
         f"--range={raw}", "--steps", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: range bounds must be finite, got {raw!r}\n"


def test_verify_pass(capsys, tmp_path):
    path = write_config(tmp_path, [PI / 2] * 4, [1.0, 2.0, 1.0, 2.0])
    code, out, err = run_cli(capsys, ["verify", path])
    assert code == 0
    assert "max |residual| = " in out
    assert "PASS (threshold 1e-08)" in out
    assert err == ""


def test_verify_fail(capsys, tmp_path):
    path = write_config(tmp_path, [PI / 2] * 4, [1.0, 2.0, 2.0, 1.0])
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 1
    assert "FAIL (threshold 1e-08)" in out


def test_verify_hexagon(capsys, tmp_path):
    path = write_config(tmp_path, [PI / 3] * 6, [1.0] * 6)
    code, out, _ = run_cli(capsys, ["verify", path])
    assert code == 0
    assert "PASS" in out


def test_verify_renormalizes_small_angle_drift(capsys, tmp_path):
    thetas = [PI / 2 + 5e-10, PI / 2, PI / 2, PI / 2]
    path = write_config(tmp_path, thetas, [1.0, 2.0, 1.0, 2.0])
    code, out, err = run_cli(capsys, ["verify", path])
    assert code == 0
    assert "renormalizing" in err
    assert "PASS" in out


def _ring9():
    rng = random.Random(9)
    gaps = [1.0 + 0.2 * (2.0 * rng.random() - 1.0) for _ in range(9)]
    scale = 2.0 * PI / math.fsum(gaps)
    return [g * scale for g in gaps], [rng.uniform(1e-3, 1e3) for _ in range(9)]


@pytest.mark.parametrize(
    "thetas, mus",
    [_ring9(), ([PI / 2 + 5e-10, PI / 2, PI / 2, PI / 2], [1.0, 2.0, 1.0, 2.0])],
    ids=["jittered-9", "renormalized-4"],
)
def test_verify_output_same_for_every_rotation_of_the_ring(capsys, tmp_path, thetas, mus):
    # relabelling the ring cyclically rotates the residual rows bit for bit
    want = run_cli(capsys, ["verify", write_config(tmp_path, thetas, mus)])
    for k in range(1, len(thetas)):
        path = write_config(tmp_path, thetas[k:] + thetas[:k], mus[k:] + mus[:k], f"rot{k}.json")
        assert run_cli(capsys, ["verify", path]) == want


def test_verify_rejects_bad_angle_sum(capsys, tmp_path):
    path = write_config(tmp_path, [1.0, 2.0, 3.3], [1.0, 1.0, 1.0])
    code, _, err = run_cli(capsys, ["verify", path])
    assert code == 2
    assert "angle sum violated" in err


def test_verify_rejects_nonpositive_entries(capsys, tmp_path):
    path = write_config(tmp_path, [1.0, 2.0, 3.0], [1.0, -1.0, 1.0])
    code, _, err = run_cli(capsys, ["verify", path])
    assert code == 2
    assert "positivity violated" in err


@pytest.mark.parametrize(
    "thetas, mus",
    [
        ([float("nan"), PI, PI], [1.0, 1.0, 1.0]),
        ([PI / 2] * 4, [1.0, float("inf"), 1.0, 2.0]),
        ([PI / 2] * 4, [-float("inf"), 2.0, 1.0, 2.0]),
        ([PI / 2] * 4, [True, 2.0, 1.0, 2.0]),
        (["1.5707963267948966", PI / 2, PI / 2, PI / 2], [1.0, 2.0, 1.0, 2.0]),
        ([PI / 2] * 4, [None, 2.0, 1.0, 2.0]),
        ([PI / 2] * 4, [[1.0], 2.0, 1.0, 2.0]),
        ([PI / 2] * 4, [10**400, 2.0, 1.0, 2.0]),
    ],
    ids=["nan-angle", "inf-mass", "neg-inf-mass", "bool-mass", "string-angle",
         "null-mass", "list-mass", "huge-int-mass"],
)
def test_verify_rejects_non_finite_and_non_number_entries(capsys, tmp_path, thetas, mus):
    path = write_config(tmp_path, thetas, mus)
    code, out, err = run_cli(capsys, ["verify", path])
    assert code == 2
    assert out == ""
    assert "lists of finite numbers" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["verify", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in err


def test_verify_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["verify", str(path)])
    assert code == 2


QUARTER_TEXT = ", ".join([repr(PI / 2)] * 4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "error: input nests too deeply to parse\n"),
        (
            f'{{"thetas": [9, 9, 9, 9], "thetas": [{QUARTER_TEXT}], "mus": [1, 2, 1, 2], '
            '"extra": 1}',
            "error: input repeats a key within one JSON object\n",
        ),
        (
            f'{{"thetas": [{QUARTER_TEXT}], "mus": [1, 2, 1, 2], "extra": {{"a": 1, "a": 2}}}}',
            "error: input repeats a key within one JSON object\n",
        ),
    ],
    ids=["deep-nesting", "repeated-key", "repeated-key-in-unknown-member"],
)
def test_verify_unreadable_input_is_bad_input(tmp_path, text, message):
    # a subprocess, so that a traceback on stderr would be seen; exit 1
    # is a FAIL verdict, which neither file may be taken for, and the
    # repeated-key file would read PASS if its last "thetas" won
    path = tmp_path / "config.json"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "-m", "coorbital", "verify", str(path)],
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message)


def test_verify_ignores_unknown_keys(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(f'{{"thetas": [{QUARTER_TEXT}], "mus": [1, 2, 1, 2], "extra": [1]}}')
    assert run_cli(capsys, ["verify", str(path)])[0] == 0


# verify file bytes: JSON-like text with small nesting, repeated keys,
# integers past the float range and the NaN/Infinity literals; well-formed
# rings of 3-8 gaps (regular, jittered, a near-collision gap, an angle sum
# a little, far or past the float range off 2*pi, huge or tiny masses);
# each also cut short and ended in bytes that are not UTF-8; the empty file
_LEAVES = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "false",
                     "null", '"x"', "1" + "0" * 400, "9" * 5000, "1.5707963267948966"]),
)
_KEYS = st.sampled_from(['"thetas"', '"mus"', '"extra"'])


def _json_object(values):
    return st.lists(st.tuples(_KEYS, values), max_size=4).map(
        lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
    )


_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=8).map(lambda xs: "[" + ", ".join(xs) + "]")
    | _json_object(inner),
    max_leaves=12,
)


@st.composite
def _ring_text(draw):
    n = draw(st.integers(3, 8))
    weights = draw(st.just([1.0] * n) | st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    weights[0] = draw(st.sampled_from([weights[0], 1e-13, 5e-324]))
    gaps = [w * 2.0 * PI / math.fsum(weights) for w in weights]
    drift = draw(st.sampled_from([1.0, 1.0 + 5e-11, 1.0 + 1e-10, 1.0 + 1e-8, 1e308]))
    mus = draw(st.lists(st.sampled_from([1.0, 2.0, 1e-300, 1e308]) | st.floats(1e-3, 1e3),
                        min_size=n, max_size=n))
    return json.dumps({"thetas": [g * drift for g in gaps], "mus": mus})


_DOCUMENTS = _VALUES | _json_object(_VALUES) | _ring_text()
_VERIFY_FILES = st.one_of(
    st.just(b""),
    st.binary(max_size=16),
    _DOCUMENTS.map(str.encode),
    _ring_text().map(str.encode),
    st.tuples(_DOCUMENTS, st.integers(0, 400), st.sampled_from([b"\xff", b"\xef\xbb\xbf", b"\xc3"]))
    .map(lambda t: t[0].encode()[: t[1]] + t[2]),
)
_VERDICT = re.compile(r"max \|residual\| = \S+\n(PASS|FAIL) \(threshold 1e-08\)\n")


@pytest.fixture(scope="module")
def verify_path(tmp_path_factory):
    return tmp_path_factory.mktemp("verify") / "config.json"


@settings(max_examples=200, deadline=None)
@given(data=_VERIFY_FILES)
# a regular ring: PASS
@example(data=json.dumps({"thetas": [2.0 * PI / 3.0] * 3, "mus": [1.0] * 3}).encode())
def test_verify_hostile_files_keep_the_exit_code_contract(verify_path, data):
    verify_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(verify_path)])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (0, 1)
        verdict = _VERDICT.fullmatch(out)
        assert verdict and verdict.group(1) == ("PASS" if code == 0 else "FAIL"), out
        assert err == "" or err.startswith("warning: angle sum off by "), err


# (flag, good values, bad values) of each subcommand's options, where a
# None value leaves the option out. Step counts are small or past their
# bound, so that no example runs long; TMP stands for a folder that
# holds ring.json (PASS), fail.json (FAIL) and empty.json
_SMALL_STEPS = st.integers(2, 5).map(str)


def _bad_steps(bound):
    counts = st.integers(-2, 1) | st.integers(bound + 1, 10**30)
    return counts.map(str) | st.sampled_from(["", "x", "2.5", "1e3"])


_FORMAT = ("--format", st.sampled_from(["csv", "json"]), st.just("xml"))
_OUT = (
    "--out",
    st.sampled_from([None, "TMP/out.txt"]),
    st.sampled_from(["TMP", "TMP/missing/out.txt", ""]),
)
_OPTIONS = {
    "kernel": [("--steps", _SMALL_STEPS, _bad_steps(KERNEL_MAX_STEPS)), _FORMAT, _OUT],
    "theorem": [
        ("--tag", st.sampled_from(["T32", "T33", "T34", "T35", "T36", "T37"]), st.just("T38")),
        _FORMAT,
        _OUT,
    ],
    "trace": [
        ("--region", st.sampled_from(["D1", "D2", "D3"]), st.just("D4")),
        (
            "--range",
            # in the D1, D2 and D3 bands
            st.sampled_from(["0.1:0.9", "1.2:2.2", "3.3:4.9"]),
            st.tuples(st.floats(), st.floats()).map(lambda ab: f"{ab[0]!r}:{ab[1]!r}")
            | st.sampled_from(["", ":", "1:2:3", "a:b", "0.0001:1.2", "1e-200:0.3"]),
        ),
        ("--steps", _SMALL_STEPS, _bad_steps(TRACE_MAX_STEPS)),
        _FORMAT,
        _OUT,
    ],
    "verify": [
        (
            "",
            st.sampled_from(["TMP/ring.json", "TMP/fail.json"]),
            st.sampled_from(["TMP/empty.json", "TMP/missing.json", "TMP"]),
        ),
    ],
    "special-points": [_FORMAT, _OUT],
}


@st.composite
def _argvs(draw):
    """A subcommand's argv with its options in any order, up to two of
    them given a bad value or left out, and maybe a stray token."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    faults = draw(st.lists(st.integers(0, len(options) - 1), max_size=2))
    pairs = []
    for i, (flag, good, bad) in enumerate(options):
        value = draw((bad | st.none()) if i in faults else good)
        if value is not None:
            pairs.append([flag, value] if flag else [value])
    stray = draw(st.sampled_from([[]] * 6 + [["--bogus"], ["extra"], ["--steps"]]))
    return [command] + [token for pair in draw(st.permutations(pairs)) for token in pair] + stray


@pytest.fixture(scope="module")
def argv_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    ring = {"thetas": [PI / 2.0] * 4, "mus": [1.0] * 4}
    (folder / "ring.json").write_text(json.dumps(ring))
    (folder / "fail.json").write_text('{"thetas": [1.0, 2.0, 3.2831853071795862], "mus": [1, 1, 1]}')
    (folder / "empty.json").write_text("")
    return folder


def _capped(fn, bound, index):
    """fn, failing at once where its argument at index passes bound, so
    that a lifted step bound fails the test instead of running for ever."""

    def capped(*args):
        assert args[index] <= bound, f"{fn.__name__} asked for {args[index]} points"
        return fn(*args)

    return capped


@settings(max_examples=200, deadline=None)
@given(argv=_argvs())
@example(argv=["kernel", "--steps", "99999999999999999999"])
@example(argv=["trace", "--region", "D1", "--range", "1e-200:0.3", "--steps", "3"])
@example(argv=["verify", "TMP/fail.json"])
@example(argv=[])
@example(argv=["kernal", "--steps", "3"])
def test_argv_keeps_the_exit_code_contract(argv_folder, argv):
    argv = [token.replace("TMP", str(argv_folder)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_kernel_rows", _capped(cli._kernel_rows, KERNEL_MAX_STEPS, 0)), \
            mock.patch.object(cli, "linspace", _capped(cli.linspace, TRACE_MAX_STEPS, 2)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's rejection
            code, rejected = exc.code, True
        else:
            rejected = False
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3, 4, 5), (argv, code)
    if rejected:
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: coorbital") and ": error: " in err.splitlines()[-1], err
    elif code == 1 and argv[0] == "verify":
        assert out.endswith("FAIL (threshold 1e-08)\n"), out
    elif code:
        assert out == "", argv
        lines = err.splitlines()
        assert lines[-1].startswith("error: ") and err.endswith("\n"), err
        assert sum(line.startswith("error:") for line in lines) == 1, err


TRACE_ARGV = ["trace", "--region", "D2", "--range", "1.2:2.2", "--steps", "3"]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (TRACE_ARGV[:4] + ["1.2"] + TRACE_ARGV[5:], None, "range must look like a:b, got '1.2'"),
        (TRACE_ARGV[:4] + ["1.2:1.7:2.2"] + TRACE_ARGV[5:], None,
         "range must look like a:b, got '1.2:1.7:2.2'"),
        (TRACE_ARGV[:-1] + ["0"], None, "steps must be at least 1"),
        (["verify"], f"[{QUARTER_TEXT}]",
         'input must be a JSON object with "thetas" and "mus"'),
        (["verify"], '{"thetas": 1.5, "mus": [1, 2, 1, 2]}',
         'input must provide "thetas" and "mus" as lists'),
        (["verify"], f'{{"thetas": [{QUARTER_TEXT}]}}',
         'input must provide "thetas" and "mus" as lists'),
        (["verify"], f'{{"thetas": [{QUARTER_TEXT}], "mus": [1, 2, 1]}}',
         "need matching lists of at least 3 angles and masses"),
        (["verify"], '{"thetas": [3.0, 3.2831853071795862], "mus": [1, 1]}',
         "need matching lists of at least 3 angles and masses"),
        # math.fsum overflows on this sum
        (["verify"], '{"thetas": [1e308, 1e308, 1e308], "mus": [1, 1, 1]}',
         "angle sum violated: |sum - 2*pi| = inf exceeds 1e-09"),
        # renormalized, then rejected: no warning line before the error
        (["verify"], '{"thetas": [1e-13, 3.141592653589793, 3.1415926540897933], "mus": [1, 1, 1]}',
         "separation 9.999999999204066e-14 within collision tolerance of 0 or 2*pi"),
        # past Python's limit on the digits of an integer
        (["verify"], '{"thetas": [' + "1" * 5000 + ', 2, 3], "mus": [1, 1, 1]}',
         "input holds a number too long to read"),
    ],
    ids=["range-one-part", "range-three-parts", "trace-zero-steps", "verify-not-an-object",
         "verify-thetas-not-a-list", "verify-mus-missing", "verify-lengths-differ",
         "verify-two-satellites", "verify-gap-sum-past-float-range",
         "verify-renormalized-then-collision", "verify-number-too-long"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = argv + [str(path)]
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("steps", [TRACE_MAX_STEPS + 1, 10**30])
def test_trace_steps_over_the_bound_exit_2_before_any_grid(monkeypatch, capsys, steps):
    # a broken bound fails here at once instead of building and tracing the grid
    def no_grid(*args, **kwargs):
        raise AssertionError("trace built a grid")

    monkeypatch.setattr(cli, "linspace", no_grid)
    monkeypatch.setattr(cli, "trace_curve", no_grid)
    message = f"error: steps must be at most {TRACE_MAX_STEPS}, got {steps}\n"
    assert run_cli(capsys, TRACE_ARGV[:-1] + [str(steps)]) == (2, "", message)


@pytest.mark.parametrize("steps", [KERNEL_MAX_STEPS + 1, 10**30])
def test_kernel_steps_over_the_bound_exit_2_before_any_row(monkeypatch, capsys, tmp_path, steps):
    # a broken bound fails here at once instead of computing the table
    def no_rows(*args, **kwargs):
        raise AssertionError("kernel computed a row")

    monkeypatch.setattr(cli, "_kernel_rows", no_rows)
    message = f"error: kernel grid takes at most {KERNEL_MAX_STEPS} steps, got {steps}\n"
    argv = ["kernel", "--steps", str(steps)]
    assert run_cli(capsys, argv) == (2, "", message)
    out = tmp_path / "kernel.json"
    assert run_cli(capsys, argv + ["--format", "json", "--out", str(out)]) == (2, "", message)
    assert not out.exists()


def test_special_points_output(capsys):
    code, out, _ = run_cli(capsys, ["special-points"])
    assert code == 0
    _, header, rows = split_csv(out)
    assert header[0] == "label"
    by_label = {row[0]: dict(zip(header, row)) for row in rows}
    assert len(by_label) == 12
    assert by_label["K"]["theta1"].startswith("1.570796")
    assert float(by_label["A"]["delta"]) < 1e-3
    assert by_label["M"]["vanishing"] == "f(theta4)"
    assert by_label["J"]["degenerate"] == "true"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--steps", "7"],
        ["trace", "--region", "D2", "--range", "1.2:2.2", "--steps", "5"],
        ["special-points"],
    ],
    ids=["kernel", "trace", "special-points"],
)
def test_csv_and_json_carry_the_same_records(capsys, argv):
    code, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    code, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    _, header, rows = split_csv(csv_out)
    records = json.loads(json_out)["data"]
    assert rows and len(rows) == len(records)
    for row, record in zip(rows, records):
        # JSON objects are written with sorted keys
        assert list(record) == sorted(header)
        assert row == [_csv_cell(record[key]) for key in header]


# Reference emitter: every row formatted into one string, CSV through a
# StringIO and JSON through json.dumps over dict rows. The streaming
# writer must reproduce these bytes exactly.
def _reference_text(fmt, manifest, header, rows):
    if fmt == "json":
        data = [
            {key: float(format(v, ".12g")) if isinstance(v, float) else v
             for key, v in zip(header, row)}
            for row in rows
        ]
        payload = {"manifest": manifest._asdict(), "data": data}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    for line in cli._manifest_lines(manifest):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _streamed_bytes(fmt, manifest, header, rows, out=None):
    args = argparse.Namespace(format=fmt, out=out)
    if out is None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._emit_records(args, manifest, header, iter(rows))
        return buf.getvalue().encode("utf-8")
    cli._emit_records(args, manifest, header, iter(rows))
    return Path(out).read_bytes()


MANIFEST = cli.RunManifest(
    command="records",
    parameters={"steps": 3, "range": "1.2:2.2", "région": "D2", "empty": None},
    tolerance_set={"width_tol": 1e-14, "gate": 1e-10},
)

ODD_FLOATS = [0.0, -0.0, 5e-324, 1e17, 1e-5, math.nan, math.inf, -math.inf]
CELL_TEXT = st.text(alphabet=st.sampled_from(list(',"\n\r ;|aZ0é€日')) | st.characters())
CELLS = st.one_of(
    st.sampled_from(ODD_FLOATS),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.none(),
    CELL_TEXT,
)
NP_INT_CELLS = CELLS | st.integers(-2**63, 2**63 - 1).map(np.int64)
# mostly plain floats; list rows take the per-cell path, whatever their cells
FLOAT_CELLS = st.floats(-1e6, 1e6) | st.floats() | st.sampled_from(ODD_FLOATS)


@st.composite
def records(draw):
    # keys hold multi-byte UTF-8, "%", the "e" and "." of float text, and
    # NUL, the byte the float path deletes from its matrix
    alphabet = st.sampled_from(list("abz_θλé日,\" 1%e.\0"))
    keys = st.text(alphabet=alphabet, min_size=1, max_size=6)
    header = tuple(draw(st.lists(keys, min_size=1, max_size=6, unique=True)))
    # np.int64 makes most JSON examples a TypeError, so only a third may hold it
    cells = draw(st.sampled_from([CELLS, NP_INT_CELLS, FLOAT_CELLS]))
    rows = draw(st.lists(st.tuples(*[cells] * len(header)), max_size=20))
    return header, rows


@settings(max_examples=150, deadline=None)
@given(records(), st.sampled_from(["csv", "json"]))
def test_streamed_records_equal_the_built_text(record, fmt):
    header, rows = record
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / f"records.{fmt}")
        # with 3 rows per block, the up to 20 rows span several blocks
        for block_rows in (cli._BLOCK_ROWS, 3):
            with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
                _check_streamed_bytes(fmt, header, rows, out)


def _check_streamed_bytes(fmt, header, rows, out):
    try:
        expected = _reference_text(fmt, MANIFEST, header, rows).encode("utf-8")
    except (TypeError, UnicodeEncodeError) as exc:
        # json cannot encode np.int64, and UTF-8 cannot encode a lone
        # surrogate in a CSV cell; the streaming writer refuses both too
        for target in (None, out):
            with pytest.raises(type(exc)):
                _streamed_bytes(fmt, MANIFEST, header, rows, target)
        return
    assert _streamed_bytes(fmt, MANIFEST, header, rows) == expected
    assert _streamed_bytes(fmt, MANIFEST, header, rows, out) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "odd",
    [1.5e-5, 2.5e13, 999999999999.5, -0.0, 3.0, math.nan, -math.inf, np.float64(0.25), True],
    ids=["small-exponent", "large-exponent", "rounds-to-1e12", "minus-zero", "integral",
         "nan", "minus-inf", "np-float64", "bool"],
)
def test_odd_cell_in_a_later_block_of_a_float_column(monkeypatch, tmp_path, fmt, odd):
    # the first two blocks are plain floats; the odd cell sits in the third
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    header = ("theta", "f")
    rows = [(0.125 * k + 0.3, -1.5 / (k + 1)) for k in range(8)]
    rows[7] = (rows[7][0], odd)
    expected = _reference_text(fmt, MANIFEST, header, rows).encode("utf-8")
    assert _streamed_bytes(fmt, MANIFEST, header, rows) == expected
    if type(odd) is float:
        # the same rows as one array take the float path
        assert _streamed_bytes(fmt, MANIFEST, header, [np.array(rows)]) == expected
    out = str(tmp_path / f"records.{fmt}")
    assert _streamed_bytes(fmt, MANIFEST, header, rows, out) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows",
    [[], [(1.5, None, True, "a,b")]],
    ids=["no-rows", "one-row"],
)
def test_streamed_records_edge_cases(tmp_path, fmt, rows):
    header = ("theta", "r_sum", "degenerate", "note")
    expected = _reference_text(fmt, MANIFEST, header, rows).encode("utf-8")
    assert _streamed_bytes(fmt, MANIFEST, header, rows) == expected
    out = str(tmp_path / f"records.{fmt}")
    assert _streamed_bytes(fmt, MANIFEST, header, rows, out) == expected


def test_plain_float_blocks_skip_the_per_cell_json_path(monkeypatch):
    # keys holding the "e" and "." of float text must not push a plain
    # array block onto the slow path
    def per_cell(value):
        raise AssertionError(f"_json_value called for {value!r}")

    header = ("theta", "f.e", "n")
    rows = [(0.125 * k + 0.3, -1.5 / (k + 1), 1e-4 + k) for k in range(7)]
    expected = _reference_text("json", MANIFEST, header, rows).encode("utf-8")
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(cli, "_json_value", per_cell)
    assert _streamed_bytes("json", MANIFEST, header, [np.array(rows)]) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_table_memory_does_not_grow_with_rows(tmp_path, fmt):
    # 20000 rows held at once take several MB; streamed, only one block of
    # rows is live
    out = tmp_path / f"kernel.{fmt}"
    tracemalloc.start()
    try:
        assert main(["kernel", "--steps", "20000", "--format", fmt, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _reference_kernel_rows(steps):
    """The row generator the numpy blocks replaced: one scalar kernel call
    per cell."""
    step = (2.0 * PI - 2.0 * cli.KERNEL_GRID_DELTA) / steps
    thetas = (cli.KERNEL_GRID_DELTA + k * step for k in range(steps))
    return ((t, kernel.f_eval(t), kernel.f_prime(t), kernel.f_double_prime(t)) for t in thetas)


# block edges: the kernel is evaluated 1024 nodes and written 256 rows at
# a time, so at both sizes the steps give one short block (or blocks
# ending in a short one), full blocks only, a last block of one row, and
# many blocks
@pytest.mark.parametrize("steps", [2, 1023, 1024, 1025, 30011])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_table_bytes_equal_the_scalar_reference(tmp_path, fmt, steps):
    out = tmp_path / f"kernel.{fmt}"
    assert main(["kernel", "--steps", str(steps), "--format", fmt, "--out", str(out)]) == 0
    manifest = cli.RunManifest(
        command="kernel",
        parameters={"steps": steps},
        tolerance_set={"grid_delta": cli.KERNEL_GRID_DELTA},
    )
    header = ("theta", "f", "f_prime", "f_double_prime")
    expected = _streamed_bytes(fmt, manifest, header, _reference_kernel_rows(steps))
    assert out.read_bytes() == expected


# each float's JSON text: 12 significant digits, read back as the float
# whose shortest repr is written; json.dumps's words for NaN and Infinity
JSON_EDGE_TEXTS = [
    (0.0, "0.0"), (-0.0, "-0.0"), (3.0, "3.0"), (5e-324, "5e-324"), (-5e-324, "-5e-324"),
    (1e-4, "0.0001"), (9.9999999999995e-05, "0.0001"), (1.00000000000049e-4, "0.0001"),
    (1e-5, "1e-05"), (999999999999.4, "999999999999.0"),
    (999999999999.5, "1000000000000.0"), (1e12, "1000000000000.0"),
    (-2e12, "-2000000000000.0"), (1e16, "1e+16"), (-6e16, "-6e+16"),
    (1.7976931348623157e308, "1.79769313486e+308"),
    (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
]


@pytest.mark.parametrize("value, text", JSON_EDGE_TEXTS, ids=[str(v) for v, _ in JSON_EDGE_TEXTS])
def test_json_value_edge_cases_match_the_float_round_trip(value, text):
    assert cli._json_value(value) == text
    assert cli._json_value(np.float64(value)) == text


# ---------------------------------------------------------------- float blocks

DECLINED = "<declined>"


def _float_path_cells(values, fmt):
    """Each value as one row of a float64 block through cli._float_rows:
    its text, or DECLINED where the row went to the per-cell path."""
    layout = cli._RowLayout((0,), ("\n",), lambda value: DECLINED, fmt == "json")
    block = np.array(values, dtype=np.float64).reshape(-1, 1)
    return cli._float_rows(block, layout).split("\n")[:-1]


def _check_float_path(values):
    """Every cell the float path writes equals the per-cell text in both
    formats; returns how many of the values it wrote in each."""
    values = [float(v) for v in values]
    written = {}
    for fmt, reference in (("csv", lambda v: format(v, ".12g")), ("json", cli._json_value)):
        texts = _float_path_cells(values, fmt)
        assert len(texts) == len(values)
        for value, text in zip(values, texts):
            if text != DECLINED:
                assert text == reference(value), (fmt, value)
        written[fmt] = sum(text != DECLINED for text in texts)
    return written


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.floats(-1e13, 1e13) | st.floats(-1e-3, 1e-3), min_size=1))
def test_float_path_writes_what_the_cell_path_writes(values):
    # st.floats() covers subnormals, -0.0, 0.0, inf and nan
    _check_float_path(values)


@settings(max_examples=300, deadline=None)
@given(st.floats())
@example(-1.2345678901234567e-308)
@example(-1.7976931348623157e308)
@example(-5e-324)
def test_cell_text_of_any_float_fits_its_slot(value):
    # fill_cells writes a declined cell's text into its WIDTH-byte slot
    # and deletes the NULs around it
    for text in (cli._fmt(value), cli._json_value(value)):
        encoded = text.encode()
        assert len(encoded) <= floattext.WIDTH and b"\0" not in encoded, text


def _with_neighbours(values, ulps=1):
    """The values and the floats up to ulps steps away, with both signs."""
    out = []
    for v in values:
        below = above = v
        out += (v, -v)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += (below, -below, above, -above)
    return out


def test_float_path_at_powers_of_ten():
    # where the exponent e steps, log10 may round either way
    powers = [float(f"1e{p}") for p in range(-6, 14)]
    written = _check_float_path(_with_neighbours(powers))
    assert written["csv"] > 50 and written["json"] > 10


def test_float_path_at_near_ties():
    # a decimal tie m5e{k} one digit past the 12th reads as a float just
    # above or below it, which the float path declines; some floats a few
    # steps away are written, and must round as format() does
    rng = random.Random(20261019)
    ties = [
        float(f"{rng.randrange(10**11, 10**12)}5e{k}")
        for k in range(-18, 2)
        for _ in range(25)
    ]
    ties += [999999999999.5, 9.9999999999995e-05, 99999999999.95, 0.000999999999999995]
    assert _check_float_path(ties) == {"csv": 0, "json": 0}
    written = _check_float_path(_with_neighbours(ties, ulps=8))
    assert written["csv"] > 1000 and written["json"] > 1000


def test_float_path_declines_ties_and_exponent_forms():
    texts = _float_path_cells([999999999999.5, 9.9999999999995e-05, 1e12, 1e-5, 0.0, -0.0], "csv")
    assert texts == [DECLINED] * 6
    # integral text lacks JSON's ".0"
    assert _float_path_cells([3.0, -120.0, 3.5], "json") == [DECLINED, DECLINED, "3.5"]
    assert _float_path_cells([3.0, -120.0, 3.5], "csv") == ["3", "-120", "3.5"]


# values each float block declines in both formats: a near-tie, an
# exponent form at either end, zero and nan
BLOCK_DECLINED = [999999999999.5, 1e-5, 1e13, 0.0, math.nan]
KERNEL_HEADER = ("theta", "f", "f_prime", "f_double_prime")
TRACE_HEADER = ("theta1", "theta2", "theta4", "lambda", "r_sum", "r_diff", "degenerate")


def _block_layout(fmt, header):
    """The layout _write_csv or _write_json gives records keyed by header."""
    if fmt == "csv":
        return cli._RowLayout(
            tuple(range(len(header))), (",",) * (len(header) - 1) + ("\n",), cli._fmt, False
        )
    order = tuple(sorted(range(len(header)), key=header.__getitem__))
    keys = [json.dumps(header[i]) + ": " for i in order]
    opening = "\n    {\n      " + keys[0]
    separators = [",\n      " + key for key in keys[1:]] + ["\n    }," + opening]
    return cli._RowLayout(order, tuple(separators), cli._json_value, True)


@st.composite
def _float_blocks(draw):
    """Two float64 blocks of 2-7 columns under a kernel or trace header,
    with declined cells in the first, a middle and the last column of
    each block."""
    header = draw(st.sampled_from([KERNEL_HEADER, TRACE_HEADER]))
    k = draw(st.integers(2, len(header)))
    cells = st.floats() | st.floats(-1e13, 1e13) | st.floats(-1e-3, 1e-3)
    blocks = []
    for _ in range(2):
        m = draw(st.integers(3, 12))
        block = np.array(draw(st.lists(cells, min_size=m * k, max_size=m * k))).reshape(m, k)
        for column in (0, k // 2, k - 1):
            row = draw(st.integers(0, m - 1))
            block[row, column] = draw(st.sampled_from(BLOCK_DECLINED))
        blocks.append(block)
    return header[:k], blocks


@settings(max_examples=150, deadline=None)
@given(_float_blocks())
def test_float_path_writes_multi_column_blocks_row_for_row(case):
    # each output column has its own separator width, and JSON reorders
    # the columns, so a cell at a wrong offset or column shows here
    header, blocks = case
    for fmt in ("csv", "json"):
        layout = _block_layout(fmt, header)
        for block in blocks:
            text = cli._float_rows(block, layout)
            for row in block.tolist():
                expected = cli._cell_row(row, layout)
                assert text[: len(expected)] == expected, (fmt, row)
                text = text[len(expected) :]
            assert text == ""


def _count_declined_cells(monkeypatch):
    """A list that gains the value of each cell that floattext.fill_cells
    declines and hands to cli._fmt or cli._json_value; the manifest's
    calls of _fmt are not counted."""
    declined = []

    def counting(format_cell):
        def counted(value):
            if sys._getframe(1).f_globals["__name__"] == floattext.__name__:
                declined.append(value)
            return format_cell(value)

        return counted

    for name in ("_fmt", "_json_value"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    return declined


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_table_rows_mostly_take_the_float_path(monkeypatch, tmp_path, fmt):
    # the cell-by-cell formatter writes a declined cell correctly but
    # slowly, so a fast path that declines everything would pass every
    # byte test
    declined = _count_declined_cells(monkeypatch)
    out = tmp_path / f"kernel.{fmt}"
    assert main(["kernel", "--steps", "100000", "--format", fmt, "--out", str(out)]) == 0
    assert 0 < len(declined) < 1000


# sha256 of `kernel --steps 100000`, the benchmark's own table, recorded
# before the float path was vectorised
KERNEL_TABLE_SHA256 = {
    "csv": "72b33e4d6d576e1bac70ac7cf88c897220043b2186842eb79269e5c152cef4b5",
    "json": "6df468284b2959f45ae21df57b1b4c90a6476ee165d193a772f94cb86de4da20",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_table_of_the_benchmark_is_pinned(tmp_path, fmt):
    out = tmp_path / f"kernel.{fmt}"
    assert main(["kernel", "--steps", "100000", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == KERNEL_TABLE_SHA256[fmt]


# values that every format declines, so their cells take the per-cell formatter
DECLINED_VALUES = [999999999999.5, 0.0, 1e20, -0.0, -2.5e-7, math.nan, -math.inf]
SPLICE_ROWS = {
    "first": [0],
    "last": [5],
    "adjacent": [2, 3],
    "every": list(range(6)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", sorted(SPLICE_ROWS))
@pytest.mark.parametrize("block", [0, 1], ids=["first-block", "later-block"])
def test_declined_rows_are_spliced_in_order(monkeypatch, fmt, where, block):
    # two array blocks of six rows; one of them holds a declined cell in
    # each placed row, written by the per-cell formatter into its own slot
    header = ("theta", "f", "f_prime")
    arrays = [
        np.array([[0.125 * r + 0.3 + b, -1.5 / (r + 1), 7e-3 * r - 2.25] for r in range(6)])
        for b in range(2)
    ]
    for i, r in enumerate(SPLICE_ROWS[where]):
        arrays[block][r, i % 3] = DECLINED_VALUES[i % len(DECLINED_VALUES)]
    rows = [tuple(row) for array in arrays for row in array.tolist()]
    expected = _reference_text(fmt, MANIFEST, header, rows).encode("utf-8")
    declined = _count_declined_cells(monkeypatch)
    assert _streamed_bytes(fmt, MANIFEST, header, arrays) == expected
    assert len(declined) == len(SPLICE_ROWS[where])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_array_blocks_and_rows_interleave(monkeypatch, fmt):
    # arrays pass through in views of _BLOCK_ROWS rows, and the rows
    # between them are gathered into list blocks of their own, even
    # where every cell is a float
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    header = ("a", "b")
    first = np.arange(18.0).reshape(9, 2) / 7.0
    second = -np.arange(6.0).reshape(3, 2) / 3.0
    loose = [(0.5, 1.25), (2.0, None), (0.1, 0.2)]
    stream = [loose[0], first, loose[1], loose[2], second]
    rows = [loose[0], *map(tuple, first.tolist()), loose[1], loose[2], *map(tuple, second.tolist())]
    expected = _reference_text(fmt, MANIFEST, header, rows).encode("utf-8")
    assert _streamed_bytes(fmt, MANIFEST, header, stream) == expected
    blocks = list(cli._blocks(stream))
    assert [len(b) for b in blocks] == [1, 4, 4, 1, 2, 3]
    assert [isinstance(b, list) for b in blocks] == [True, False, False, False, True, False]


def test_readme_json_example_is_the_kernel_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Output conventions\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    code, out, _ = run_cli(capsys, ["kernel", "--steps", "2", "--format", "json"])
    assert code == 0
    assert out == example


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_failure_writes_no_output(capsys, monkeypatch, tmp_path, fmt):
    def fail(*args, **kwargs):
        raise TraceResidualError("curve residual over the gate")

    monkeypatch.setattr(cli, "trace_curve", fail)
    argv = ["trace", "--region", "D2", "--range", "1.2:2.2", "--steps", "5", "--format", fmt]
    out = tmp_path / f"trace.{fmt}"
    code, stdout, err = run_cli(capsys, argv + ["--out", str(out)])
    assert (code, stdout, err) == (4, "", "error: curve residual over the gate\n")
    assert not out.exists()
    code, stdout, _ = run_cli(capsys, argv)
    assert (code, stdout) == (4, "")


# trace checks and traces its theta2 lines in grid order, so the first
# failing line names the error even when a later line fails otherwise
@pytest.mark.parametrize(
    "rng, steps, code, message",
    [
        ("0.0001:1.2", "40", 4, ", 0.0001) has residual "),
        ("0.5:1.2", "40", 2, "theta2 1.0564102564102562 outside the D1 band"),
        # f(theta2) is -inf at theta2 = 1e-200
        ("1e-200:0.3", "3", 4, ", 1e-200) has residual inf\n"),
    ],
)
def test_trace_reports_the_first_failing_line(capsys, rng, steps, code, message):
    argv = ["trace", "--region", "D1", "--range", rng, "--steps", steps]
    got, stdout, err = run_cli(capsys, argv)
    assert (got, stdout) == (code, "")
    assert err.startswith("error: ") and message in err


def test_main_runs_the_handler_bound_at_call_time(capsys, monkeypatch):
    assert main(["theorem", "--tag", "T35"]) == 0
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_theorem", lambda args: calls.append(args.tag) or 7)
    assert main(["theorem", "--tag", "T35"]) == 7
    assert calls == ["T35"]


@pytest.mark.parametrize("command", ["kernel", "theorem", "trace", "verify", "special-points"])
def test_unexpected_exception_is_one_internal_error_line(capsys, monkeypatch, tmp_path, command):
    # a bug in a handler exits with the internal-error code, never with
    # verify's FAIL (1) and never with a traceback
    def broken(args):
        raise RuntimeError("handler broke\n  on two lines")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), broken)
    argv = {
        "kernel": ["kernel", "--steps", "3"],
        "theorem": ["theorem", "--tag", "T35"],
        "trace": ["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "2"],
        "verify": ["verify", str(tmp_path / "ring.json")],
        "special-points": ["special-points"],
    }[command]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (cli.INTERNAL_ERROR, "")
    assert cli.INTERNAL_ERROR == 6
    assert err == "error: internal error: RuntimeError: handler broke on two lines\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_theorem", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["theorem", "--tag", "T35"])


def test_out_into_missing_directory_is_an_io_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, ["kernel", "--steps", "7", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "coorbital", "kernel", "--steps", "4"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.startswith("# coorbital kernel")


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Runs in a fresh interpreter: imports coorbital, then runs the CLI on
# argv (if any) and prints its exit code and whether numpy got loaded.
NUMPY_PROBE = """
import contextlib, io, json, sys
import coorbital
rc = None
if sys.argv[1:]:
    from coorbital.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[1:])
print(json.dumps([rc, "numpy" in sys.modules,
                  [m for m in ("dataclasses", "inspect", "coorbital.floattext")
                   if m in sys.modules],
                  "coorbital.interval" in sys.modules]))
"""


def _probe_ring(kind, n):
    """Gaps and masses of an n-ring: regular, jittered, or with a period
    of kind sites and unequal masses."""
    if kind == "regular":
        return [2.0 * PI / n] * n, [1.0] * n
    if kind == "jittered":
        return jittered_gaps(n, n), [1.0] * n
    base = [float(w) for w in range(1, kind + 1)]
    return periodic_gaps(base, n // kind), base * (n // kind)


@pytest.mark.parametrize(
    "argv, rc, loads_numpy",
    [
        ([], None, False),
        (["theorem", "--tag", "T36"], 0, False),
        (["special-points"], 0, False),
        (["verify", "regular", 4], 0, False),
        (["verify", "regular", 91], 0, False),
        (["kernel", "--steps", "10"], 0, True),
        (["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "2"], 0, True),
        # verify sums one row per rotational orbit and loads numpy only
        # when those rows hold more than 8192 terms
        (["verify", "jittered", 92], 1, True),
        (["verify", "jittered", 100], 1, True),
        (["verify", "regular", 1024], 1, False),
        (["verify", 8, 1024], 1, False),
        (["verify", 16, 1024], 1, True),
    ],
    ids=["import", "theorem", "special-points", "verify-4", "verify-91", "kernel",
         "trace", "verify-92", "verify-100", "verify-1024", "verify-1024-period-8",
         "verify-1024-period-16"],
)
def test_only_array_paths_import_numpy(tmp_path, argv, rc, loads_numpy):
    # The short subcommands start without numpy, which is most of their
    # start-up, without dataclasses or the inspect module it pulls in
    # (numpy imports inspect itself) and without the float-block
    # formatter; the array paths must still be the ones taken. Only the
    # case solvers and the catalog load the interval enclosures.
    loads_interval = argv[:1] in (["theorem"], ["special-points"])
    if argv[:1] == ["verify"]:
        argv = ["verify", write_config(tmp_path, *_probe_ring(*argv[1:]))]
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    got_rc, loaded, heavy, interval = json.loads(out.stdout)
    assert got_rc == rc
    assert loaded is loads_numpy
    assert interval is loads_interval
    if not loads_numpy:
        assert heavy == []


# Runs in a fresh interpreter: runs `kernel --steps 3 --out F` through the
# process entry (as `python -m coorbital` does) or through cli.main, and
# prints the exit code, OPENBLAS_NUM_THREADS afterwards, whether numpy got
# loaded and the number of threads (None where /proc/self/task is absent).
ENTRY_PROBE = """
import json, os, runpy, sys
path, out = sys.argv[1:]
argv = ["kernel", "--steps", "3", "--out", out]
if path == "entry":
    sys.argv = ["coorbital", *argv]
    try:
        runpy.run_module("coorbital", run_name="__main__")
    except SystemExit as exc:
        rc = exc.code
else:
    from coorbital import cli
    rc = cli.main(argv)
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([rc, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, threads]))
"""


@pytest.mark.parametrize(
    "path, preset, expected",
    [("entry", None, "1"), ("entry", "2", "2"), ("cli.main", None, None)],
    ids=["entry-pins", "entry-keeps-preset", "cli-main-leaves-unset"],
)
def test_process_entry_pins_blas_to_one_thread(tmp_path, path, preset, expected):
    # Only the process entry sets the variable, and only when it is unset;
    # the pinned launch loads numpy and still runs on one thread.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = tmp_path / "kernel.csv"
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE, path, str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rc, value, loaded, threads = json.loads(proc.stdout)
    assert (rc, value, loaded) == (0, expected, True)
    assert out.read_text(encoding="utf-8").startswith("# coorbital kernel")
    if expected == "1" and threads is not None:
        assert threads == 1


def test_console_script_takes_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"coorbital": "coorbital.__main__:main"}
