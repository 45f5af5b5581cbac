"""Tests for the named RNG substreams."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nonlocality_lab"


def test_generators_come_only_from_substreams():
    # every consumer draws from a named substream, never from a raw seed
    callers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if re.search(r"\bdefault_rng\b", path.read_text()) and path.name != "_rng.py"
    ]
    assert callers == []
