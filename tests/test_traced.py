"""The benchmark's tracer (bench/spans.py) looks kernel functions, methods
and the runner's check table up by name.  A verdict run under it must build,
install and give the same JSON report as an untraced run, so a rename that
breaks the traced benchmark fails here."""

import sys
from pathlib import Path

import pytest

from bspec import dsl, report, runner

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.bsp"))


def verdict(text):
    doc = dsl.parse(text)
    return report.emit_report(runner.run_suite(doc, None, runner.RunConfig()), "json")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    return spans


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_a_traced_verdict_matches_the_untraced_one(path, spans):
    text = path.read_text(encoding="utf-8")
    want = verdict(text)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = tracer.root(verdict, text)
    finally:
        tracer.uninstall()
    assert got == want
    # the spans of the kernel's functions, not only the root, were recorded
    names = {tracer.names[s] for s in tracer.sid}
    assert {"bench.verdict", "dsl.parse", "dsl.elaborate", "runner.run_suite"} <= names
    # and uninstalling put the originals back
    assert not hasattr(runner.run_suite, "__wrapped__")
