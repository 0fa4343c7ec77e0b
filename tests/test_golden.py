"""The behavioural contract: `bspec check --json` on every fixture is byte
for byte the report in `tests/golden/`, generated before the uniqueness
and certificate-search fast paths went in, and on every test document the
report in `tests/golden/documents/`, generated before the product and
chain cover tables, the keyed sum-equality pass and `is_equivalence` went
out.

Regenerate a golden file only for a deliberate report change:
`bspec check fixtures/NAME.bsp --json tests/golden/NAME.json`, or
`bspec check tests/documents/NAME.bsp --json tests/golden/documents/NAME.json`.
"""

from pathlib import Path

import pytest

from bspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = sorted((ROOT / "fixtures").glob("*.bsp"))
DOCUMENTS = sorted((ROOT / "tests" / "documents").glob("*.bsp"))


def test_every_fixture_has_a_golden_report():
    golden = sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert golden == [p.stem for p in FIXTURES]


def test_every_test_document_has_a_golden_report():
    golden = sorted(p.stem for p in (GOLDEN / "documents").glob("*.json"))
    assert golden == [p.stem for p in DOCUMENTS]


def _report(path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    return out.read_bytes()


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_json_report_matches_golden(path, tmp_path, capsys):
    golden = GOLDEN / f"{path.stem}.json"
    assert _report(path, tmp_path, capsys) == golden.read_bytes()


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_document_json_report_matches_golden(path, tmp_path, capsys):
    golden = GOLDEN / "documents" / f"{path.stem}.json"
    assert _report(path, tmp_path, capsys) == golden.read_bytes()
