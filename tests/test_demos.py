"""Every demo script runs to completion, and the demos whose output does not
depend on the CPU print pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 prefixes of stdout, found the same with numpy's AVX512 and AVX2
#: dispatch turned off in the child (``NPY_DISABLE_CPU_FEATURES`` set to
#: "AVX512_SPR", to "X86_V4" and to "X86_V3").  ``entangled_identities.py``
#: is not pinned: the last digit of its two curve residuals moves with the
#: AVX2 dispatch.
PINNED = {
    "conditional_chsh_landscape.py": "fda5ec5cdd23dcd8",
    "pr_box_walkthrough.py": "6e4a070f558391b8",
    "singlet_from_pr_box.py": "5f7c65f4fa1ae482",
}


def test_demos_found():
    assert len(DEMOS) >= 4
    assert set(PINNED) < {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if demo.name in PINNED:
        assert hashlib.sha256(result.stdout.encode()).hexdigest()[:16] == PINNED[demo.name]
