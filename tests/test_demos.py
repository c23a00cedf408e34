"""The demo scripts run end to end and print exactly the recorded output.

Each demo's stdout is compared by sha256 with a recorded digest, so a
change that moves any printed digit, strategy or Monte Carlo count fails
here; a deliberate change of output records new digests and says why.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_DEMO_STDOUT_SHA256 = {
    # Re-recorded when staged reports came to be taken from the one conjugate
    # solver's point evaluation: two printed dicts moved by 1 ulp (e01 and
    # both branch values of the r = 0.5 chain, at most 3.0e-16 relative).
    "architecture_exponents.py": "b3f11ab8fd5493e8f5853bab39947e8d7eae3cfe58612ead5b6f61c30042f339",
    "finite_blocklengths.py": "fcb5bc0efd03fb949181f9abb4faeb828d7dc1de669d7817bbae10f65f48b481",
    "lower_bound.py": "9ab65c1a5c978e5e0051fc039099bec708eec56429953243d9ae617240c1f26e",
    "rate_curves.py": "094976217d42490d8eec5ce6e1acb971e7e3a2acdf192ceabd9e0e922aa5e191",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(_DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(_DEMO_STDOUT_SHA256))
def test_demo_stdout_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=False,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == _DEMO_STDOUT_SHA256[name]
