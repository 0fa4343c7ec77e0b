"""Differential tests for the front end read in one pass: `parse`,
`parse_pairs` and `parse_sexpr` against the line scan, the split and the
recursive reader they replaced (`tests/oracles.py`).

Documents are seeded mutants of every fixture, test document and hostile
document: each inserts or deletes the characters the grammar reads
(`#`, `:`, `,`, parentheses, braces, `~`, `<=`, `=>`), or inserts a
whitespace character `str.split` honours, a line break `str.splitlines`
honours, or a copy of a line.  Values are drawn from the same characters and
a few words.  Both sides must give equal blocks and statements, or raise
the same class with the same message.
"""

import random
from pathlib import Path

from bspec.dsl import SEXPR_DEPTH, DslError, Stmt, parse, parse_pairs, parse_sexpr

from oracles import outcome, parse_line_scan, parse_pairs_split, parse_sexpr_recursive

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (sorted(ROOT.glob("fixtures/*.bsp")) + sorted(ROOT.glob("tests/documents/*.bsp"))
           + sorted(ROOT.glob("tests/hostile/*.bsp")))
GRAMMAR = ["#", ":", ",", "(", ")", "{", "}", "~", "<=", "=>"]
SPACES = ["\xa0", "\u3000"]
BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
MUTANTS = 3000
VALUES = 4000


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.1:  # a copy of a line, block headers among them
            lines = text.splitlines(keepends=True)
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "".join(lines)
            continue
        if rng.random() < 0.4:  # delete the next grammar token at or after at
            hits = [(text.find(t, at), t) for t in GRAMMAR if text.find(t, at) >= 0]
            if hits:
                k, t = min(hits)
                text = text[:k] + text[k + len(t):]
                continue
        extra = rng.choice(GRAMMAR + SPACES + BREAKS)
        text = text[:at] + extra + text[at:]
    return text


def _shape(doc):
    """Every block and statement field a reader of a parsed document reads."""
    return [(b.kind, b.name, b.line,
             [(s.key, s.args, s.value, s.line, s.col) for s in b.stmts])
            for b in doc.blocks]


def _parsed(read, text):
    got = outcome(read, text)
    return ("value", _shape(got[1])) if got[0] == "value" else got


def test_mutated_documents_parse_as_the_line_scan_does():
    rng = random.Random(45)
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    refusals = set()
    for _ in range(MUTANTS):
        text = _mutate(rng, rng.choice(texts))
        got = _parsed(parse, text)
        assert got == _parsed(parse_line_scan, text), text[:300]
        if got[0] != "value":
            assert issubclass(got[0], DslError), got
            refusals.add(got[1].split(": ", 1)[1].split(" ", 1)[0])
    # the mutants reach each refusal of the reader
    assert refusals >= {"expected", "unknown", "duplicate", "empty", "unterminated"}


def test_every_statement_value_reads_as_the_oracles_read_it():
    """parse_pairs and parse_sexpr over the values of every statement of
    the documents and of their mutants."""
    rng = random.Random(7)
    texts = [p.read_text(encoding="utf-8") for p in SOURCES]
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(300)]
    for text in texts:
        got = outcome(parse, text)
        if got[0] != "value":
            continue
        for b in got[1].blocks:
            for s in b.stmts:
                _same_values(s.value, s)


WORDS = ["a", "b", "0", "1/2", "gen", "f", "add", "const", "table", "w", " ", "  ", "\t"]


def _value(rng):
    return "".join(rng.choice(WORDS + GRAMMAR + SPACES) for _ in range(rng.randint(0, 14)))


def _same_values(value, stmt):
    for sep in ("<=", "=>", "~"):
        assert (outcome(parse_pairs, value, sep, stmt)
                == outcome(parse_pairs_split, value, sep, stmt)), (value[:300], sep)
    got = outcome(parse_sexpr, value, stmt.line)
    if got[1] == f"{stmt.line}:0: expression nested deeper than SEXPR_DEPTH = {SEXPR_DEPTH}":
        # the recursive reader has no bound: it recurses past Python's limit
        assert value.count("(") > SEXPR_DEPTH
        return
    assert got == outcome(parse_sexpr_recursive, value, stmt.line), value[:300]


def test_drawn_values_read_as_the_oracles_read_them():
    rng = random.Random(45)
    kinds = set()
    for n in range(VALUES):
        value = _value(rng)
        stmt = Stmt("order", (), value, n + 1, "  order: " + value)
        _same_values(value, stmt)
        got = outcome(parse_sexpr, value, n + 1)
        kinds.add(got[0] if got[0] == "value" else got[1].split(": ", 1)[1])
    # the draws reach every refusal of the expression reader
    assert kinds >= {"value", "unexpected end of expression", "missing closing parenthesis",
                     "unexpected closing parenthesis", "trailing tokens after expression"}
