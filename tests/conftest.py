"""Let the interpreters that tests start (`python -m bspec.cli ...`) import
bspec from this checkout, as the test process does through the pytest
`pythonpath` setting."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
