"""The top-level definitions under `src/` that nothing else under `src/`
names, against an explicit list of why each one stays.

A name counts as used when any other top-level statement of any module
under `src/bspec` reads it (a name loaded, an attribute, an import); a
parameter or local of the same name, and what reads it, do not count.  The
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


class _Reads(ast.NodeVisitor):
    """The names a statement reads: each name loaded, unless a function
    around it holds a parameter or a local of that name, each attribute
    and each imported name.  A name stored or bound is no use of the
    definition it shadows."""

    def __init__(self):
        self.names, self.scopes = [], []

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self.names.append(node.id)

    def visit_Attribute(self, node):
        self.names.append(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.names.append(node.name)

    def _function(self, node):
        a = node.args
        own = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
        own |= {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self.scopes.append(own)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


def _names(node):
    reads = _Reads()
    reads.visit(node)
    return reads.names


def unreferenced_definitions(sources=None):
    """`module.name` of each top-level function or class in `sources`
    (module -> source text; by default the modules under `src/bspec`)
    that no other top-level statement there names."""
    if sources is None:
        sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    defined, named = [], {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
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


def test_a_parameter_or_local_named_like_a_dead_definition_does_not_hide_it():
    sources = {
        "kernel": "def scale(q):\n    return q\n\n"
                  "def used(x):\n    return x\n\n"
                  "def factor(f, scale):\n    return used(f) * scale\n\n"
                  "def shift(x):\n    scale = x + 1\n    return scale\n",
        "caller": "from kernel import factor, shift\n\n"
                  "def run():\n    return factor(1, 2) + shift(3)\n",
    }
    assert unreferenced_definitions(sources) == ["caller.run", "kernel.scale"]
