"""Seeded mutants of the fixtures and test documents.

Each mutant makes one or two edits to a document: a line is deleted,
duplicated or truncated, or one of its words is deleted, duplicated or
replaced by another word of the document.  About half the edits land on
`check:` lines.  Every mutant either runs, or is refused as a document
(`DslError`) or by the kernel (`KernelError`); any other exception out of
`run_suite` is a bug.
"""

import random
from pathlib import Path

from bspec.dsl import DslError, parse
from bspec.report import KernelError
from bspec.runner import run_suite

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("fixtures/*.bsp")) + sorted(ROOT.glob("tests/documents/*.bsp"))
MUTANTS = 300


def _mutate(rng, text):
    lines = text.splitlines()
    vocabulary = text.split()
    for _ in range(rng.randint(1, 2)):
        checks = [n for n, line in enumerate(lines) if line.strip().startswith("check:")]
        n = rng.choice(checks) if checks and rng.random() < 0.5 else rng.randrange(len(lines))
        words = lines[n].split()
        edit = rng.choice(("delete line", "duplicate line", "truncate line",
                           "delete word", "duplicate word", "replace word"))
        if edit == "delete line":
            del lines[n]
        elif edit == "duplicate line":
            lines.insert(n, lines[n])
        elif edit == "truncate line":
            lines[n] = lines[n][:rng.randrange(len(lines[n]) + 1)]
        elif words:
            k = rng.randrange(len(words))
            if edit == "delete word":
                del words[k]
            elif edit == "duplicate word":
                words.insert(k, words[k])
            else:
                words[k] = rng.choice(vocabulary)
            lines[n] = lines[n][:len(lines[n]) - len(lines[n].lstrip())] + " ".join(words)
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


def test_every_mutant_runs_or_is_refused():
    rng = random.Random(36)
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    outcomes, escaped = {}, []
    for m in range(MUTANTS):
        text = _mutate(rng, rng.choice(texts))
        try:
            run_suite(parse(text))
            outcome = "ran"
        except (DslError, KernelError) as exc:
            outcome = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - the escape this test looks for
            escaped.append((m, f"{type(exc).__name__}: {exc}", text))
            continue
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert escaped == []
    # the edits reach both outcomes: documents that still run, and
    # refusals at a line
    assert outcomes.get("ran", 0) > 0
    assert sum(n for name, n in outcomes.items() if name != "ran") > 0
