"""Output-byte contract: fixed CLI invocations against recorded files.

Every file under tests/golden/ holds the exact bytes one invocation
writes with ``--out``. A change that moves a single output byte fails
here; when a change of output is intended, rewrite the affected files
from the new code and say so in the change log.
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
}

CASES = [(name, fmt) for name in INVOCATIONS for fmt in ("csv", "json")]


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_output_bytes_match_golden(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert main(INVOCATIONS[name] + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
