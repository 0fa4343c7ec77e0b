"""The behavioural contract: `bspec check --json` on every fixture is byte
for byte the report in `tests/golden/`, generated before the uniqueness
and certificate-search fast paths went in.

Regenerate a golden file only for a deliberate report change:
`bspec check fixtures/NAME.bsp --json tests/golden/NAME.json`.
"""

from pathlib import Path

import pytest

from bspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.bsp"))


def test_every_fixture_has_a_golden_report():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.json"))
    assert golden == [p.stem for p in FIXTURES]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_json_report_matches_golden(path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    golden = ROOT / "tests" / "golden" / f"{path.stem}.json"
    assert out.read_bytes() == golden.read_bytes()
