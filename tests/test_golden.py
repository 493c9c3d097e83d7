"""Output-byte contract: fixed CLI invocations against recorded files.

Every file under tests/golden/ holds the exact bytes one invocation
writes with ``--out``, and the same invocation without ``--out`` must
print exactly those bytes to stdout. A change that moves a single output
byte fails here; when a change of output is intended, rewrite the
affected files from the new code and say so in the change log.
"""
from pathlib import Path

import pytest

from coorbital.cli import main

GOLDEN = Path(__file__).parent / "golden"

INVOCATIONS = {
    **{f"theorem-{tag}": ["theorem", "--tag", tag] for tag in
       ("T32", "T33", "T34", "T35", "T36", "T37")},
    "special-points": ["special-points"],
    "trace-D2": ["trace", "--region", "D2", "--range", "1.2:2.2", "--steps", "5"],
    "kernel-7": ["kernel", "--steps", "7"],
    # a band window without curve points: CSV header only, JSON "data": []
    "trace-empty": ["trace", "--region", "D3", "--range", "3.2:3.3", "--steps", "2"],
}

CASES = [(name, fmt) for name in INVOCATIONS for fmt in ("csv", "json")]


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_output_bytes_match_golden(capsys, tmp_path, name, fmt):
    golden = (GOLDEN / f"{name}.{fmt}").read_bytes()
    out = tmp_path / f"{name}.{fmt}"
    assert main(INVOCATIONS[name] + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    assert capsys.readouterr().out == ""
    assert main(INVOCATIONS[name] + ["--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden
