"""Output-byte contract: fixed CLI invocations against recorded files.

Every file under tests/golden/ holds the exact bytes one invocation
writes with ``--out``, and the same invocation without ``--out`` must
print exactly those bytes to stdout. A change that moves a single output
byte fails here; when a change of output is intended, rewrite the
affected files from the new code and say so in the change log.

``verify`` has no ``--out``: its files hold the stdout of one run on a
ring built in code, and the exit code is pinned beside its input.
"""
import json
import math
from pathlib import Path

import pytest

from coorbital.cli import main
from rings import jittered_gaps, periodic_gaps

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


def _regular(n, stretch=1.0):
    return [2.0 * math.pi / n * stretch] * n, [1.0] * n


# name: (thetas, mus, exit code); the regular rings are central by
# symmetry but FAIL the absolute 1e-8 threshold
VERIFY_RINGS = {
    "verify-regular-512": (*_regular(512), 1),
    "verify-regular-1024": (*_regular(1024), 1),
    "verify-jittered-1024": (jittered_gaps(1024, 8), [1.0] * 1024, 1),
    "verify-period4-1024": (periodic_gaps([1.0, 2.0, 1.5, 0.5], 256),
                            [1.0, 2.0, 3.0, 4.0] * 256, 1),
    # angle sum off by about 8e-10: renormalised, with a warning on stderr,
    # to gaps one ulp above 2*pi/768
    "verify-renormalised-768": (*_regular(768, 1.0 - 1.3e-10), 1),
}


@pytest.mark.parametrize("name", VERIFY_RINGS)
def test_verify_output_bytes_match_golden(capsys, tmp_path, name):
    thetas, mus, code = VERIFY_RINGS[name]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"thetas": thetas, "mus": mus}), encoding="utf-8")
    assert main(["verify", str(path)]) == code
    out, err = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
    assert ("renormalizing" in err) is ("renormalised" in name)
