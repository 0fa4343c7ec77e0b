"""Seeded corpus of .bsp documents, each with an answer key derived from how
the document was built.

This module does not import bspec: every expected verdict below follows from
the construction (and from the theorems the kernel checks), not from running
the program.  The seed picks element names and generator values; the shape
of every document (index, carrier sizes, merge pattern, check list) is fixed
per workload, so two seeds give isomorphic work.

Constructions used throughout:

- carriers are discrete, with elements numbered 0..m-1 and renamed per seed;
- every transport between comparable indices is the clamp x -> min(x, m-1)
  into the target carrier of size m.  Carrier sizes are monotone along the
  order, so clamps compose and every composite is again a clamp;
- covariant spectra take their generators at the top index and pull them
  back to every other index; contravariant spectra take "own" generators at
  some indices and pull them back up the order.  Either way every edge
  witness is a generator match.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

UNIQ_BOUND = 1_000_000  # RunConfig.uniq_bound, the bound the benchmark runs with

WORKLOADS = ("direct-limits", "inverse-limits", "duality-pools")

FIXTURES = ("constant.bsp", "cspec.bsp", "eo1.bsp", "eo2.bsp", "inverse.bsp")


@dataclass
class Doc:
    name: str
    text: str
    key: list  # [(law, status, witness list)], in report order
    kept_fault: bool = False


# --- names and values ------------------------------------------------------

_LETTERS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiouy"


def element_names(rng, m):
    """m distinct letter-only names (no separator the kernel splits on)."""
    pool = [c + v for c in _LETTERS for v in _VOWELS]
    return rng.sample(pool, m)


def rational(rng, taken=()):
    """A rational other than 0 and 1, and not in `taken`."""
    while True:
        q = Fraction(rng.randint(-12, 12), rng.choice((2, 3, 4, 5)))
        if q not in (0, 1) and q not in taken:
            return q


def fmt_q(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- directed indices ------------------------------------------------------

@dataclass
class Index:
    elements: list
    covers: list        # generating pairs (i, j), i below j
    level: dict         # element -> height
    members: list       # a cofinal subset
    cof: dict           # element -> member above it
    leq: set = field(default_factory=set)

    def __post_init__(self):
        rel = {(i, i) for i in self.elements} | set(self.covers)
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for c, d in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        self.leq = rel

    @property
    def top(self):
        return max(self.elements, key=lambda i: self.level[i])

    def below(self, i):
        return [k for k in self.elements if (k, i) in self.leq]


def chain(n):
    els = [str(k) for k in range(n)]
    members = [e for k, e in enumerate(els) if k % 2 == 0 or k == n - 1]
    cof = {e: next(m for m in members if int(m) >= k) for k, e in enumerate(els)}
    return Index(els, list(zip(els, els[1:])), {e: k for k, e in enumerate(els)},
                 members, cof)


def grid(a, b):
    """Product of chain(a) and chain(b), elements pXY."""
    els = [f"p{x}{y}" for x in range(a) for y in range(b)]
    covers = []
    for x in range(a):
        for y in range(b):
            if x + 1 < a:
                covers.append((f"p{x}{y}", f"p{x + 1}{y}"))
            if y + 1 < b:
                covers.append((f"p{x}{y}", f"p{x}{y + 1}"))

    def up(k, n):
        return k if k % 2 == 0 or k == n - 1 else k + 1

    members = [f"p{x}{y}" for x in range(a) for y in range(b)
               if up(x, a) == x and up(y, b) == y]
    cof = {f"p{x}{y}": f"p{up(x, a)}{up(y, b)}" for x in range(a) for y in range(b)}
    level = {f"p{x}{y}": x + y for x in range(a) for y in range(b)}
    return Index(els, covers, level, members, cof)


def diamonds(k):
    """m0 < l1, r1 < m1 < l2, r2 < m2 ...: k stacked diamonds."""
    els, covers, level = ["m0"], [], {"m0": 0}
    for t in range(1, k + 1):
        for side in ("l", "r"):
            els.append(f"{side}{t}")
            level[f"{side}{t}"] = 2 * t - 1
            covers.append((f"m{t - 1}", f"{side}{t}"))
            covers.append((f"{side}{t}", f"m{t}"))
        els.append(f"m{t}")
        level[f"m{t}"] = 2 * t
    members = [f"m{t}" for t in range(k + 1)]
    cof = {e: f"m{(level[e] + 1) // 2}" for e in els}
    return Index(els, covers, level, members, cof)


# --- spectra ---------------------------------------------------------------

class Spec:
    """One spectrum block with its family, carriers and subbases.

    `sizes` maps each index element to its carrier size; `own` maps index
    elements to lists of generator tables (over range(size)) declared there.
    """

    pool = (Fraction(0), Fraction(1))  # the DSL default, written out

    def __init__(self, rng, name, index, direction, sizes, own, auto=False, dname=None):
        self.name, self.index, self.direction = name, index, direction
        self.dname = dname or f"{name}D"
        self.sizes, self.auto = sizes, auto
        for i, j in index.leq:
            for k in index.elements:
                if (j, k) in index.leq and (min(sizes[i], sizes[j], sizes[k])
                                            != min(sizes[i], sizes[k])):
                    raise ValueError(f"clamps along {i} <= {j} <= {k} do not compose")
        self.names = {i: element_names(rng, sizes[i]) for i in index.elements}
        # generators at each index: (name, table over range(size))
        self.gens = {i: [] for i in index.elements}
        for k in index.elements:
            for n, table in enumerate(own.get(k, ())):
                gname = f"o{k}n{n}"
                targets = (index.below(k) if direction == "covariant"
                           else [j for j in index.elements if (k, j) in index.leq])
                for j in targets:
                    pulled = [table[self.clamp(x, k)] for x in range(sizes[j])]
                    self.gens[j].append((gname, pulled))

    def clamp(self, x, target):
        """The transport into `target`'s carrier, on element numbers."""
        return min(x, self.sizes[target] - 1)

    def carrier_name(self, i):
        return f"{self.name}X{i}"

    def top_gens(self):
        return self.gens[self.index.top]

    def blocks(self, i):
        """Partition of carrier(i) into points no generator separates."""
        keys = {}
        for x in range(self.sizes[i]):
            keys.setdefault(tuple(t[x] for _, t in self.gens[i]), []).append(x)
        return list(keys.values())

    def text(self):
        idx, out = self.index, []
        for i in idx.elements:
            out.append(f"setoid {self.carrier_name(i)} {{\n"
                       f"  elements: {', '.join(self.names[i])}\n}}\n")
        lines = [f"family {self.name}F {{", f"  index: {self.dname}",
                 f"  direction: {self.direction}"]
        lines += [f"  carrier {i}: {self.carrier_name(i)}" for i in idx.elements]
        for i, j in idx.covers:
            src, dst = (i, j) if self.direction == "covariant" else (j, i)
            pairs = ", ".join(f"{self.names[src][x]} => {self.names[dst][self.clamp(x, dst)]}"
                              for x in range(self.sizes[src]))
            lines.append(f"  map {i} -> {j}: {pairs}")
        out.append("\n".join(lines) + "\n}\n")
        for i in idx.elements:
            lines = [f"subbase {self.name}S{i} {{", f"  carrier: {self.carrier_name(i)}"]
            for gname, table in self.gens[i]:
                vals = ", ".join(f"{self.names[i][x]} => {fmt_q(q)}"
                                 for x, q in enumerate(table))
                lines.append(f"  gen {gname}: {vals}")
            out.append("\n".join(lines) + "\n}\n")
        lines = [f"spectrum {self.name} {{", f"  family: {self.name}F"]
        lines += [f"  space {i}: {self.name}S{i}" for i in idx.elements]
        lines.append("  pool: " + ", ".join(fmt_q(q) for q in self.pool))
        for i, j in idx.covers:
            if self.auto:
                lines.append(f"  witness {i} -> {j}: auto")
                continue
            target = j if self.direction == "covariant" else i
            for gname, _ in self.gens[target]:
                lines.append(f"  witness {i} -> {j} {gname}: (gen {gname})")
        out.append("\n".join(lines) + "\n}\n")
        return "".join(out)

    # answers that follow from the construction

    def limit_size(self):
        """Direct-limit classes, or inverse-limit choices: both are the
        elements of the top carrier.  Every class meets the top carrier in
        exactly one element, and every choice is fixed by its top component,
        which any element of the top carrier can be."""
        return self.sizes[self.index.top]

    def sum_size(self):
        return sum(self.sizes.values())

    def direct_gens(self):
        """Distinct thread functions: a thread is fixed by its top component,
        which is a top generator or a pool constant."""
        m = self.sizes[self.index.top]
        tables = {tuple(t) for _, t in self.top_gens()}
        tables |= {tuple([q] * m) for q in self.pool}
        return len(tables)

    def inverse_gens(self):
        """Distinct projection generators: a generator declared at k reads a
        choice through its component at k, which is the top element clamped."""
        top = self.index.top
        tables = set()
        for i in self.index.elements:
            for _, t in self.gens[i]:
                tables.add(tuple(t[self.clamp(x, i)] for x in range(self.sizes[top])))
        return len(tables)

    def onto_from_top(self):
        """First (index, element) outside the image of the transport from the
        top, or None (contravariant spectra)."""
        top = self.index.top
        for i in self.index.elements:
            image = {self.clamp(x, i) for x in range(self.sizes[top])}
            for x in range(self.sizes[i]):
                if x not in image:
                    return i, self.names[i][x]
        return None


def directed_text(name, index):
    order = ", ".join(f"{i} <= {j}" for i, j in index.covers)
    body = f"  elements: {', '.join(index.elements)}\n"
    if order:
        body += f"  order: {order}\n"
    return f"directed {name} {{\n{body}  closure: auto\n}}\n"


def cofinal_text(name, dname, index):
    cof = ", ".join(f"{i} => {index.cof[i]}" for i in index.elements)
    return (f"cofinal {name} {{\n  directed: {dname}\n"
            f"  members: {', '.join(index.members)}\n  cof: {cof}\n}}\n")


def suite_text(checks):
    return "suite main {\n" + "".join(f"  check: {c}\n" for c in checks) + "}\n"


def point_spec(rng, name, direction):
    """A spectrum over the one-point index on a separated two-point space:
    the small factor of every product check (limit size 2)."""
    idx = Index(["0"], [], {"0": 0}, ["0"], {"0": "0"})
    a = rational(rng)
    return Spec(rng, name, idx, direction, {"0": 2}, {"0": [[a, rational(rng, {a})]]})


def distinct_table(rng, m):
    vals = []
    for _ in range(m):
        vals.append(rational(rng, set(vals)))
    return vals


def two_valued(rng, m, split):
    a = rational(rng)
    b = rational(rng, {a})
    return [a if x < split else b for x in range(m)]


# --- answer-key fragments, one per check kind ------------------------------

def key_spectrum(n):
    return [(f"spectrum.{n}.edge-witnesses", "pass", []),
            (f"spectrum.{n}.composite-witnesses", "pass", [])]


def key_equivalence(n):
    return [(f"equivalence.{n}.laws", "pass", []),
            (f"equivalence.{n}.top-vs-search", "pass", [])]


def key_limit_direct(n, classes, gens):
    return [(f"limit.{n}.thread-extensionality", "pass", []),
            (f"limit.{n}.export", "pass", [f"classes={classes}", f"gens={gens}"])]


def key_limit_inverse(n, choices, gens):
    return [(f"limit.{n}.top-determinacy", "pass", []),
            (f"limit.{n}.export", "pass", [f"choices={choices}", f"gens={gens}"])]


def key_universal(n, space):
    """Mediator and triangles hold (the universal property); uniqueness is
    enumerated only when the candidate space is within the bound."""
    out = [(f"universal.{n}.mediator", "pass", []),
           (f"universal.{n}.triangles", "pass", [])]
    if space > UNIQ_BOUND:
        out.append((f"universal.{n}.uniqueness", "skipped", ["uniqueness unbounded"]))
    else:
        out.append((f"universal.{n}.uniqueness", "pass", []))
    return out


def key_functoriality(n):
    return [(f"functoriality.{n}", "pass", [])]


def key_cofinal(n, c):
    return [(f"cofinal.{c}.moduli", "pass", []),
            (f"cofinal.{n}.round-trips", "pass", []),
            (f"cofinal.{n}.morphisms", "pass", [])]


def key_product_direct(s, t, cs, ct):
    return [(f"product.{s}x{t}.bijection", "pass", []),
            (f"product.{s}x{t}.class-count", "pass", [str(cs * ct), str(cs), str(ct)])]


def key_product_inverse(s, t, cs, ct):
    return [(f"product.{s}x{t}.pairing", "pass", [str(cs * ct), str(cs), str(ct)])]


def key_duality(p, card):
    return [(f"duality.{p}.round-trips", "pass", [f"side-cardinality={card}"]),
            (f"duality.{p}.embedding", "pass", []),
            (f"duality.{p}.morphisms", "pass", [])]


def key_duality2(p, card):
    return [(f"duality2.{p}.round-trips", "pass", [f"side-cardinality={card}"]),
            (f"duality2.{p}.morphisms", "pass", [])]


def key_converse(p, hypothesis_gap=None, covariant=False):
    out = [(f"converse.{p}.morphism", "pass", [])]
    if covariant:
        return out
    if hypothesis_gap is None:
        out.append((f"converse.{p}.embedding", "pass", []))
    else:
        j, y = hypothesis_gap
        out.append((f"converse.{p}.embedding", "skipped",
                    [f"hypothesis fails at {j},{y}"]))
    return out


# --- direct-limits -----------------------------------------------------------

# (index, carrier size by level, number of top generators)
DIRECT_SHAPES = (
    (lambda: chain(8), lambda lv: max(2, 5 - lv // 2), 2),
    (lambda: chain(6), lambda lv: 7 - lv // 2, 2),
    (lambda: grid(3, 3), lambda lv: max(2, 5 - lv), 2),
    (lambda: grid(2, 3), lambda lv: 6 - lv // 2, 3),
    (lambda: diamonds(2), lambda lv: 6 - lv, 2),
    (lambda: diamonds(2), lambda lv: 6 - lv // 3, 2),
    (lambda: chain(5), lambda lv: 4 - lv // 2, 2),
    (lambda: grid(2, 2), lambda lv: 3 - lv // 2, 2),
)


def direct_doc(rng, slot):
    make_index, size_at, n_gens = DIRECT_SHAPES[slot]
    idx = make_index()
    sizes = {i: size_at(idx.level[i]) for i in idx.elements}
    mt = sizes[idx.top]
    gens = [distinct_table(rng, mt)] + [two_valued(rng, mt, 1 + n % (mt - 1))
                                        for n in range(n_gens - 1)]
    s = Spec(rng, "S", idx, "covariant", sizes, {idx.top: gens})
    t = point_spec(rng, "T", "covariant")
    text = (directed_text("SD", idx) + directed_text("TD", t.index) + s.text()
            + t.text() + cofinal_text("C", "SD", idx)
            + suite_text(["spectrum S", "equivalence S", "limit-direct S",
                          "universal-direct S", "functoriality S", "cofinal S C",
                          "product S T"]))
    c = s.limit_size()
    key = (key_spectrum("S") + key_equivalence("S")
           + key_limit_direct("S", c, s.direct_gens())
           + key_universal("S", s.sum_size() ** c)
           + key_functoriality("S") + key_cofinal("S", "C")
           + key_product_direct("S", "T", c, t.limit_size()))
    return Doc(f"direct-{slot}", text, key)


# --- inverse-limits ----------------------------------------------------------

# (index, carrier size by level, points of the declared cone's apex)
INVERSE_SHAPES = (
    (lambda: chain(12), lambda lv: 2 if lv < 9 else 3 + (lv - 9) // 2, 7),
    (lambda: chain(10), lambda lv: 2 + lv // 4, 6),
    (lambda: grid(3, 3), lambda lv: 2 + lv // 2, 7),
    (lambda: grid(2, 5), lambda lv: 2 + lv // 3, 9),
    (lambda: diamonds(3), lambda lv: 2 + lv // 3, 7),
    (lambda: diamonds(2), lambda lv: 2 + lv // 2, 10),
    (lambda: chain(14), lambda lv: 2 if lv < 12 else 4, 7),
)


def cone_text(rng, s, name, k):
    """A cone from a k-point apex: apex point z goes to the top element
    z mod c and then down the transports.  The apex carries every top
    generator pulled back, so each leg is a morphism by a generator match."""
    top, c = s.index.top, s.sizes[s.index.top]
    els = element_names(rng, k)
    lines = [f"setoid {name}Z {{\n  elements: {', '.join(els)}\n}}\n",
             f"subbase {name}A {{\n  carrier: {name}Z\n"]
    for gname, table in s.gens[top]:
        vals = ", ".join(f"{z} => {fmt_q(table[n % c])}" for n, z in enumerate(els))
        lines.append(f"  gen {gname}: {vals}\n")
    lines.append("}\n")
    lines.append(f"cone {name} {{\n  spectrum: {s.name}\n  apex: {name}A\n")
    for i in s.index.elements:
        legs = ", ".join(f"{z} => {s.names[i][s.clamp(n % c, i)]}"
                         for n, z in enumerate(els))
        lines.append(f"  leg {i}: {legs}\n")
    lines.append("}\n")
    return "".join(lines)


def inverse_doc(rng, slot):
    make_index, size_at, apex = INVERSE_SHAPES[slot]
    idx = make_index()
    sizes = {i: size_at(idx.level[i]) for i in idx.elements}
    # own generators: at the bottom and at every index where the carrier grows
    own = {}
    for i in idx.elements:
        grows = all(sizes[k] < sizes[i] for k in idx.below(i) if k != i)
        if grows:
            own[i] = [distinct_table(rng, sizes[i])]
    s = Spec(rng, "S", idx, "contravariant", sizes, own)
    r_idx = chain(3)
    r = Spec(rng, "R", r_idx, "contravariant", {"0": 2, "1": 2, "2": 3},
             {"0": [distinct_table(rng, 2)], "2": [distinct_table(rng, 3)]})
    t = point_spec(rng, "T", "contravariant")
    text = (directed_text("SD", idx) + directed_text("RD", r_idx)
            + directed_text("TD", t.index) + s.text() + r.text() + t.text()
            + cofinal_text("C", "SD", idx) + cone_text(rng, s, "K", apex)
            + suite_text(["limit-inverse S", "universal-inverse S", "universal-inverse S K",
                          "functoriality S", "cofinal S C", "product R T"]))
    c = s.limit_size()
    key = (key_limit_inverse("S", c, s.inverse_gens())
           + key_universal("S", c ** c) + key_universal("S", c ** apex)
           + key_functoriality("S") + key_cofinal("S", "C")
           + key_product_inverse("R", "T", r.limit_size(), t.limit_size()))
    return Doc(f"inverse-{slot}", text, key)


# The one document kept although it fails: fixtures/inverse.bsp widened to
# three-point carriers.  Its product spectrum has 9 indices of 9 points, so
# the inverse limit of the product is refused by the size bound on the
# unpruned product of carrier sizes (9^7 > 10^6) although the pruned search
# has 9 choices.  Known answer: pairing passes with counts (9, 3, 3).
KEPT_FAULT = """\
setoid B0 {
  elements: a, b, c
}
setoid B1 {
  elements: u, v, w
}
setoid B2 {
  elements: x, y, z
}
directed CHAIN3 {
  elements: 0, 1, 2
  order: 0 <= 1, 1 <= 2
  closure: auto
}
family REVCHAIN {
  index: CHAIN3
  direction: contravariant
  carrier 0: B0
  carrier 1: B1
  carrier 2: B2
  map 0 -> 1: u => a, v => b, w => c
  map 1 -> 2: x => u, y => v, z => w
}
subbase G0 {
  carrier: B0
  gen g0: a => 0, b => 1/2, c => 1
}
subbase G1 {
  carrier: B1
  gen g1: u => 0, v => 1/2, w => 1
}
subbase G2 {
  carrier: B2
  gen g2: x => 0, y => 1/2, z => 1
}
spectrum REV {
  family: REVCHAIN
  space 0: G0
  space 1: G1
  space 2: G2
  pool: 0, 1
  witness 0 -> 1 g0: (gen g1)
  witness 1 -> 2 g1: (gen g2)
}
suite main {
  check: product REV REV
}
"""


def kept_fault_doc():
    return Doc("inverse-kept-fault", KEPT_FAULT,
               key_product_inverse("REV", "REV", 3, 3), kept_fault=True)


# --- duality-pools -----------------------------------------------------------

def hom_count(src_blocks, dst_blocks):
    """Maps sending every source block into one target block.  On spaces with
    at most two blocks these are exactly the morphisms: a block-constant
    pullback is constant or an affine image of a separating generator, and
    no certificate separates points that no generator separates."""
    out = 1
    for b in src_blocks:
        out *= sum(len(c) ** len(b) for c in dst_blocks)
    return out


def blocks_of(table):
    keys = {}
    for x, q in enumerate(table):
        keys.setdefault(q, []).append(x)
    return list(keys.values())


def fixed_space(rng, name, table):
    """A fixed space with one generator given by `table`."""
    els = element_names(rng, len(table))
    vals = ", ".join(f"{e} => {fmt_q(q)}" for e, q in zip(els, table))
    return (f"setoid {name}X {{\n  elements: {', '.join(els)}\n}}\n"
            f"subbase {name} {{\n  carrier: {name}X\n  gen f: {vals}\n}}\n")


def _q(*xs):
    return [Fraction(x) for x in xs]


# Each slot: index; covariant sizes by level and generators declared at
# "top"/"bottom"; contravariant sizes and generators the same way; the
# generators of the two fixed spaces YA and YB.  Values are fixed per slot,
# not drawn from the seed: a search that must fail walks a table whose size
# depends on the values (0.1 s to 3 s for the same shape), so seeded values
# would make the work differ between seeds.  The seed renames elements.
# Three slots hold a two-point block that two maps split: those two maps
# must be rejected after a failing search each.
DUALITY_SHAPES = (
    # every space separated: every map is a morphism
    (lambda: chain(3), lambda lv: 2, {"top": _q("-2", "1/3")},
     lambda lv: 2, {"bottom": _q("3/2", "-3/4")}, _q("-3", "1/3"), _q("2/3", "5/3")),
    # the top of SV is an unseparated pair: 2 maps into YA are rejected
    (lambda: chain(3), lambda lv: 2, {"top": _q("5/2", "-1/3")},
     lambda lv: 1 + lv // 2, {"bottom": _q("3/2")}, _q("-2", "-1/4"), _q("4/3", "-1/2")),
    # the bottom of SC is an unseparated pair: 2 maps into YA are rejected
    (lambda: diamonds(1), lambda lv: 2 - (lv + 1) // 2, {"top": _q("-1/2")},
     lambda lv: 2, {"bottom": _q("-4/3", "2/5")}, _q("9/2", "3"), _q("7/3", "-1/4")),
    # SC and YA unseparated: every map is a morphism, all pullbacks constant
    (lambda: grid(2, 2), lambda lv: 2, {"top": _q("5/2", "5/2")},
     lambda lv: 2, {"bottom": _q("-4/3", "2/5")}, _q("-1/2", "-1/2"), _q("3/4", "-5/3")),
    # SV carriers shrink upwards: transports from the top are not onto
    (lambda: chain(4), lambda lv: 2, {"top": _q("7/3", "-1/4")},
     lambda lv: 3 - lv // 2, {"bottom": _q("-3/2", "-3/2", "2")}, _q("5/4", "5/4"),
     _q("-2/3", "3/2")),
    # YB is an unseparated pair: 2 maps out of it into the top of SV are rejected
    (lambda: chain(2), lambda lv: 2, {"top": _q("-5/2", "-5/2")},
     lambda lv: 1 + lv, {"bottom": _q("2/3"), "top": _q("3", "4")}, _q("1/3", "1/3"),
     _q("5/2", "5/2")),
)


def duality_doc(rng, slot):
    make_index, cov_size, cown, con_size, vown, ya, yb = DUALITY_SHAPES[slot]
    idx = make_index()
    ends = {"top": idx.top, "bottom": idx.elements[0]}
    top = idx.top
    csizes = {i: cov_size(idx.level[i]) for i in idx.elements}
    vsizes = {i: con_size(idx.level[i]) for i in idx.elements}
    sc = Spec(rng, "SC", idx, "covariant", csizes,
              {ends[k]: [t] for k, t in cown.items()}, auto=True, dname="D")
    sv = Spec(rng, "SV", idx, "contravariant", vsizes,
              {ends[k]: [t] for k, t in vown.items()}, auto=True, dname="D")
    y1, y2 = blocks_of(ya), blocks_of(yb)
    pools = [("PD", "SC", "YA", "hom-into-fixed"), ("PCD", "SC", "YB", "hom-out-of-fixed"),
             ("PD2", "SV", "YB", "hom-out-of-fixed"), ("PCV", "SV", "YA", "hom-into-fixed")]
    pool_text = "".join(f"pool {p} {{\n  spectrum: {s}\n  space: {y}\n  search: auto\n"
                        f"  shape: {shape}\n}}\n" for p, s, y, shape in pools)
    text = (directed_text("D", idx) + fixed_space(rng, "YA", ya) + fixed_space(rng, "YB", yb)
            + sc.text() + sv.text() + pool_text
            + suite_text(["duality PD", "converse-duals PCD", "duality2 PD2",
                          "converse-duals PCV"]))
    key = (key_duality("PD", hom_count(sc.blocks(top), y1))
           + key_converse("PCD", covariant=True)
           + key_duality2("PD2", hom_count(y2, sv.blocks(top)))
           + key_converse("PCV", sv.onto_from_top()))
    return Doc(f"duality-{slot}", text, key)


# --- the fixtures, with answers worked out from their text ------------------

def fixture_keys():
    """Answer keys for fixtures/*.bsp.  Limit sizes are the top carriers;
    `gens` counts top generators plus pool constants with distinct tables;
    pool cardinalities count maps between separated two-point spaces (all 4
    are morphisms) or into a one-point space (1)."""
    constant = (key_spectrum("CONST") + key_equivalence("CONST")
                + key_limit_direct("CONST", 2, 3)
                + key_universal("CONST", 6 ** 2) + key_universal("CONST", 2 ** 2)
                + key_functoriality("CONST") + key_product_direct("CONST", "CONST", 2, 2)
                + key_duality("PDUAL", 4) + key_converse("PCONVERSE", covariant=True))
    cspec = ([("directed.CHAIN3.laws", "pass", []),
              ("family.COLLAPSE.family-identity", "pass", []),
              ("family.COLLAPSE.family-composition", "pass", []),
              ("family.COLLAPSE.transport-extensional", "pass", [])]
             + key_spectrum("CSPEC") + key_equivalence("CSPEC")
             + key_limit_direct("CSPEC", 1, 2) + key_universal("CSPEC", 5 ** 1)
             + key_functoriality("CSPEC") + key_product_direct("CSPEC", "CSPEC", 1, 1)
             + key_duality("PCSPEC", 1))
    eo1 = (key_spectrum("EOSPEC") + key_equivalence("EOSPEC")
           + key_limit_direct("EOSPEC", 2, 3) + key_cofinal("EOSPEC", "EVENS")
           + key_universal("EOSPEC", 6 ** 2))
    eo2 = (key_spectrum("EOSPEC2") + key_equivalence("EOSPEC2")
           + key_cofinal("EOSPEC2", "EVENS2"))
    inverse = (key_spectrum("REV") + key_limit_inverse("REV", 2, 1)
               + key_universal("REV", 2 ** 2) + key_functoriality("REV")
               + key_cofinal("REV", "EVENS") + key_product_inverse("REV", "REV", 2, 2)
               + key_duality2("PDUAL2", 4) + key_converse("PCONV"))
    return {"constant.bsp": constant, "cspec.bsp": cspec, "eo1.bsp": eo1,
            "eo2.bsp": eo2, "inverse.bsp": inverse}


def make_corpus(workload, seed, root="."):
    """The documents of one workload for one seed, in run order.

    The five fixtures close every workload: they are small, and between them
    they run every check kind, so every layer the traced run reports is
    exercised on every workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "direct-limits":
        docs = [direct_doc(rng, k) for k in range(len(DIRECT_SHAPES))]
    elif workload == "inverse-limits":
        docs = ([inverse_doc(rng, k) for k in range(len(INVERSE_SHAPES))]
                + [kept_fault_doc()])
    elif workload == "duality-pools":
        docs = [duality_doc(rng, k) for k in range(len(DUALITY_SHAPES))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    keys = fixture_keys()
    for name in FIXTURES:
        with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
            docs.append(Doc(f"fixture-{name}", fh.read(), keys[name]))
    return docs


def check_report(doc, payload):
    """Mismatches between a schema-1 JSON report and the document's key."""
    got = [(c["law"], c["status"], c["witness"]) for c in payload["checks"]]
    problems = []
    if len(got) != len(doc.key):
        problems.append(f"{len(got)} records, expected {len(doc.key)}")
    for (law, status, witness), (glaw, gstatus, gwitness) in zip(doc.key, got):
        if (law, status) != (glaw, gstatus):
            problems.append(f"{glaw}: {gstatus} {gwitness}, expected {law}: {status}")
        elif witness != gwitness:
            problems.append(f"{law}: witness {gwitness}, expected {witness}")
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for _, status, _ in got:
        summary[status] = summary.get(status, 0) + 1
    if payload.get("summary") != summary:
        problems.append(f"summary {payload.get('summary')} disagrees with records")
    return problems
