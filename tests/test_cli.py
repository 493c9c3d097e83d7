"""CLI surface: formats, manifests, exit codes, determinism."""
import argparse
import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbital import cli, kernel
from coorbital.cli import main
from coorbital.exceptions import TraceResidualError

import table_data

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
        payload = {"manifest": asdict(manifest), "data": data}
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
# mostly plain floats, so that whole blocks take the writers' float path
FLOAT_CELLS = st.floats(-1e6, 1e6) | st.floats() | st.sampled_from(ODD_FLOATS)


@st.composite
def records(draw):
    # "e" and "." are the letters the JSON float path counts; "%" is the
    # templates' own
    keys = st.text(alphabet=st.sampled_from(list("abz_θλé日,\" 1%e.")), min_size=1, max_size=6)
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
        # with 3 rows per block, the up to 20 rows span blocks that mix
        # float-only blocks and others
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
    # keys holding the letters the float path counts must not push a
    # plain block onto the slow path
    def per_cell(value):
        raise AssertionError(f"_json_value called for {value!r}")

    header = ("theta", "f.e", "n")
    rows = [(0.125 * k + 0.3, -1.5 / (k + 1), 1e-4 + k) for k in range(7)]
    expected = _reference_text("json", MANIFEST, header, rows).encode("utf-8")
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(cli, "_json_value", per_cell)
    assert _streamed_bytes("json", MANIFEST, header, rows) == expected


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


def _reference_json_value(value):
    """cli._json_value before its fast path: every float takes the round
    trip through float(format(value, ".12g"))."""
    if isinstance(value, float):
        value = float(format(value, ".12g"))
        if math.isfinite(value):
            return repr(value)
    return json.dumps(value)


def _reference_kernel_rows(steps):
    """The row generator the numpy blocks replaced: one scalar kernel call
    per cell."""
    step = (2.0 * PI - 2.0 * cli.KERNEL_GRID_DELTA) / steps
    thetas = (cli.KERNEL_GRID_DELTA + k * step for k in range(steps))
    return ((t, kernel.f_eval(t), kernel.f_prime(t), kernel.f_double_prime(t)) for t in thetas)


# block edges: 256 rows per block, so one short block, blocks ending in a
# short one, full blocks only, a last block of one row, and many blocks
@pytest.mark.parametrize("steps", [2, 1023, 1024, 1025, 30011])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_table_bytes_equal_the_scalar_reference(monkeypatch, tmp_path, fmt, steps):
    out = tmp_path / f"kernel.{fmt}"
    assert main(["kernel", "--steps", str(steps), "--format", fmt, "--out", str(out)]) == 0
    manifest = cli.RunManifest(
        command="kernel",
        parameters={"steps": steps},
        tolerance_set={"grid_delta": cli.KERNEL_GRID_DELTA},
    )
    header = ("theta", "f", "f_prime", "f_double_prime")
    monkeypatch.setattr(cli, "_json_value", _reference_json_value)
    expected = _streamed_bytes(fmt, manifest, header, _reference_kernel_rows(steps))
    assert out.read_bytes() == expected


JSON_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324,
    1e-4, 9.9999999999995e-05, 1.00000000000049e-4, 1e-5,
    999999999999.4, 999999999999.5, 1e12, -2e12, 1e16, -6e16, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("value", JSON_EDGE_FLOATS)
def test_json_value_edge_cases_match_the_float_round_trip(value):
    assert cli._json_value(value) == _reference_json_value(value)
    assert cli._json_value(np.float64(value)) == _reference_json_value(np.float64(value))


@settings(max_examples=3000, deadline=None)
@given(st.floats() | st.floats(-1e13, 1e13) | st.floats(-1e13, 1e13).map(np.float64))
def test_json_value_matches_the_float_round_trip(value):
    assert cli._json_value(value) == _reference_json_value(value)


def test_json_value_matches_the_float_round_trip_on_random_mantissas():
    # full 53-bit mantissas at magnitudes from 1e-6 to 3e13, on both sides
    # of where 12-digit text switches to exponent notation
    rng = random.Random(20261018)
    for _ in range(20000):
        value = math.ldexp(rng.getrandbits(53) / 2.0**53, rng.randint(-20, 45))
        for v in (value, -value):
            assert cli._json_value(v) == _reference_json_value(v), v


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
print(json.dumps([rc, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ([], False),
        (["theorem", "--tag", "T36"], False),
        (["special-points"], False),
        (["verify", 4], False),
        (["verify", 91], False),
        (["kernel", "--steps", "10"], True),
        (["trace", "--region", "D2", "--range", "1.2:1.4", "--steps", "2"], True),
        (["verify", 92], True),
        (["verify", 100], True),
    ],
    ids=["import", "theorem", "special-points", "verify-4", "verify-91", "kernel",
         "trace", "verify-92", "verify-100"],
)
def test_only_array_paths_import_numpy(tmp_path, argv, loads_numpy):
    # The short subcommands start without numpy, which is most of their
    # start-up; the array paths must still be the ones taken.
    if argv[:1] == ["verify"]:
        n = argv[1]
        argv = ["verify", write_config(tmp_path, [2.0 * PI / n] * n, [1.0] * n)]
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    rc, loaded = json.loads(out.stdout)
    assert rc == (0 if argv else None)
    assert loaded is loads_numpy
