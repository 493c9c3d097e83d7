"""CLI surface: formats, manifests, exit codes, determinism."""
import csv
import json
import math
import subprocess
import sys

import pytest

from coorbital.cli import main

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
