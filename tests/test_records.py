"""The kernel's records are plain classes.

The value records (findings, certificate nodes, expressions, blocks)
compare, hash and print by their fields and refuse assignment; each is
pinned here against hand-written expectations.  `import bspec` generates no
code for them, so it loads neither `dataclasses` nor `inspect`."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bspec.report import Finding
from bspec.topology import BID, Bic, Blocks, CAdd, CBic, CConst, CEq, CGen, CULim

HALF = Fraction(1, 2)

# (record, an equal record built apart, an unequal one of the same class,
#  its repr, its fields in order)
CASES = [
    (Finding("x"), Finding("x", (), ""), Finding("x", (1,)),
     "Finding(law='x', witness=(), note='')", ("x", (), "")),
    (Finding("law", ("p", 2), "n"), Finding("law", ("p", 2), "n"),
     Finding("law", ("p", 2), "m"),
     "Finding(law='law', witness=('p', 2), note='n')", ("law", ("p", 2), "n")),
    (Bic("id"), BID, Bic("const", (), HALF),
     "Bic(tag='id', args=(), value=None)", ("id", (), None)),
    (Bic("const", (), HALF), Bic("const", (), Fraction(2, 4)), Bic("const", (), 1),
     "Bic(tag='const', args=(), value=Fraction(1, 2))", ("const", (), HALF)),
    (CGen(0), CGen(0), CGen(1), "CGen(k=0)", (0,)),
    (CConst(HALF), CConst(Fraction(1, 2)), CConst(0),
     "CConst(value=Fraction(1, 2))", (HALF,)),
    (CAdd(CGen(0), CGen(1)), CAdd(CGen(0), CGen(1)), CAdd(CGen(1), CGen(0)),
     "CAdd(left=CGen(k=0), right=CGen(k=1))", (CGen(0), CGen(1))),
    (CBic(BID, CGen(2)), CBic(Bic("id"), CGen(2)), CBic(BID, CGen(3)),
     "CBic(phi=Bic(tag='id', args=(), value=None), child=CGen(k=2))",
     (BID, CGen(2))),
    (CEq(CGen(0), (("p", HALF),)), CEq(CGen(0), (("p", HALF),)),
     CEq(CGen(0), (("p", 0),)),
     "CEq(child=CGen(k=0), table=(('p', Fraction(1, 2)),))",
     (CGen(0), (("p", HALF),))),
    (CULim((("p", 1),), ((1, CGen(0)),)), CULim((("p", 1),), ((1, CGen(0)),)),
     CULim((("p", 1),), ((1, CGen(1)),)),
     "CULim(table=(('p', 1),), witnesses=((1, CGen(k=0)),))",
     ((("p", 1),), ((1, CGen(0)),))),
    (Blocks(("p",), (0, 0), ((0, "p"),), None),
     Blocks(("p",), (0, 0), ((0, "p"),), None),
     Blocks(("p", "q"), (0, 1), ((0, "p"), (1, "q")), CGen(0)),
     "Blocks(firsts=('p',), of=(0, 0), h=((0, 'p'),), h_cert=None)",
     (("p",), (0, 0), ((0, "p"),), None)),
]
IDS = [case[3].partition("(")[0] for case in CASES]


@pytest.mark.parametrize("record, same, other, text, fields", CASES, ids=IDS)
def test_value_records_compare_hash_and_print_by_their_fields(record, same, other,
                                                              text, fields):
    assert record == same and not record != same
    assert hash(record) == hash(same) == hash(fields)
    assert record != other and not record == other
    assert repr(record) == text
    assert tuple(getattr(record, f) for f in type(record)._fields) == fields
    # a record of another class with the same fields is not equal
    assert record != fields


def test_records_of_different_classes_are_never_equal():
    assert CGen(0) != CConst(0)
    assert len({CGen(0), CGen(0), CConst(Fraction(0)), CConst(0)}) == 2


@pytest.mark.parametrize("record, same, other, text, fields", CASES, ids=IDS)
def test_value_records_refuse_assignment(record, same, other, text, fields):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert record == same


def test_import_generates_no_code():
    # the modules `import bspec` (and the CLI) adds to a fresh interpreter
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import bspec, bspec.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", "import json\n" + code],
                          capture_output=True, text=True, check=True)
    added = set(json.loads(proc.stdout))
    assert "bspec.topology" in added
    assert not added & {"dataclasses", "inspect"}
