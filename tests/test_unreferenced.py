"""The top-level definitions under `src/` that nothing else under `src/`
names, against an explicit list of why each one stays.

A name counts as used when any other top-level statement of any module
under `src/bspec` names it (a call, an attribute, an import).  The
re-exports in `bspec/__init__.py` do not count, so public API with no
caller of its own shows up here and has to be listed as such.  A new
definition with no caller, or a listed one that gains a caller or goes,
fails the test until the list says so.
"""

import ast
from pathlib import Path

import bspec

SRC = Path(__file__).resolve().parent.parent / "src" / "bspec"

PAPER = "a construction of the paper, kept although only tests call it"
PUBLIC = "public API, re-exported from bspec/__init__.py"

KEPT = {
    # the closure rules of a Bishop topology and the uniform-continuity
    # modulus they rest on
    "topology.ceq": PAPER,
    "topology.culim": PAPER,
    "topology.cert_mul": PAPER,
    "topology.cert_max": PAPER,
    "topology.cert_min": PAPER,
    "topology.bic_modulus": PAPER,
    "topology.relative_space": PAPER,
    "order.product_cofinal": PAPER,
    "families.restrict_family": PAPER,
    "setoid.make_subset": PAPER,
    "spectra.make_spectrum": PUBLIC,
    "order.chain": PUBLIC,
    "spectra.constant_spectrum": PUBLIC,
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def unreferenced_definitions():
    """`module.name` of each top-level function or class under `src/bspec`
    that no other top-level statement there names."""
    defined, named = [], {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if module == "__init__":
                continue
            for name in _names(node):
                if name != owner:
                    named.setdefault(name, set()).add((module, owner))
    return sorted(f"{m}.{n}" for m, n in defined if n not in named)


def test_every_definition_without_a_caller_is_listed():
    assert unreferenced_definitions() == sorted(KEPT)


def test_public_entries_are_re_exported():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    public = {name.split(".")[1] for name, why in KEPT.items() if why == PUBLIC}
    assert public <= exported


def test_every_exported_name_resolves():
    # a star import fails on a name in __all__ that the package lacks, so
    # a dropped export cannot leave a dangling entry
    namespace = {}
    exec("from bspec import *", namespace)
    assert set(bspec.__all__) <= namespace.keys()
