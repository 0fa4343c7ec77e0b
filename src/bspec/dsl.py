"""Line-oriented description language for carriers, orders, families,
subbases, certificates, spectra, cofinal subsets, pools, and check suites.

A document is a sequence of blocks `kind name { ... }` whose statements are
`key [args] : values` lines.  Rationals are written `num/den` or as
integers, finite maps as `a => u, b => v`, order relations as `0 <= 1`,
equalities as `a ~ b`, and certificates as parenthesized trees such as
`(bic (add (const 1) (neg id)) (gen f0))`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .families import COVARIANT, CONTRAVARIANT, make_direct_family, oriented
from .limits import Legs
from .order import CofinalSubset, make_directed
from .setoid import make_fn, make_setoid
from .spectra import Spectrum, autofill_witnesses
from .topology import (
    BID,
    BSpace,
    CAdd,
    CBic,
    CConst,
    CEq,
    CGen,
    CULim,
    RFun,
    babs,
    badd,
    bcomp,
    bconst,
    bmax,
    bmin,
    bmul,
    bneg,
    certify_map,
    raise_first,
)


class DslError(Exception):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f"{line}:{col if col is not None else 0}: "
        super().__init__(where + message)
        self.line = line
        self.col = col


class SyntaxErrorDsl(DslError):
    pass


class UnresolvedReference(DslError):
    pass


class TypeMismatch(DslError):
    pass


BLOCK_KINDS = (
    "setoid", "directed", "family", "subbase", "certificate", "spectrum",
    "cofinal", "cocone", "cone", "pool", "suite",
)


@dataclass
class Stmt:
    key: str
    args: tuple
    value: str
    line: int
    col: int


@dataclass
class Block:
    kind: str
    name: str
    stmts: list
    line: int

    def one(self, key, default=None, required=False):
        hits = [s for s in self.stmts if s.key == key]
        if not hits:
            if required:
                raise SyntaxErrorDsl(f"block {self.name!r} needs a {key!r} line",
                                     self.line)
            return default
        if len(hits) > 1:
            raise SyntaxErrorDsl(f"duplicate {key!r} line", hits[1].line)
        return hits[0]

    def one_of(self, key, allowed):
        """The value of an optional line, which must be one of `allowed`;
        the first is the default."""
        stmt = self.one(key)
        value = stmt.value.strip() if stmt else allowed[0]
        if value not in allowed:
            raise TypeMismatch(f"unknown {key} {value!r}", stmt.line)
        return value

    def many(self, key):
        return [s for s in self.stmts if s.key == key]


@dataclass
class SpecDocument:
    blocks: list = field(default_factory=list)

    def named(self, kind, name, line=None):
        for b in self.blocks:
            if b.kind == kind and b.name == name:
                return b
        raise UnresolvedReference(f"no {kind} block named {name!r}", line)

    def of_kind(self, kind):
        return [b for b in self.blocks if b.kind == kind]


def parse(text):
    """Parse a document; errors carry line and column positions."""
    doc = SpecDocument()
    current = None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if current is None:
            parts = stripped.split()
            if len(parts) != 3 or parts[2] != "{":
                raise SyntaxErrorDsl(
                    f"expected 'kind name {{', got {stripped!r}", n,
                    len(line) - len(stripped) + 1)
            kind, name = parts[0], parts[1]
            if kind not in BLOCK_KINDS:
                raise SyntaxErrorDsl(
                    f"unknown block kind {kind!r}; expected one of "
                    + ", ".join(BLOCK_KINDS), n, 1)
            if any(b.kind == kind and b.name == name for b in doc.blocks):
                raise SyntaxErrorDsl(f"duplicate block {kind} {name}", n, 1)
            current = Block(kind, name, [], n)
            continue
        if stripped == "}":
            doc.blocks.append(current)
            current = None
            continue
        if ":" not in stripped:
            raise SyntaxErrorDsl(f"expected 'key: value', got {stripped!r}",
                                 n, len(line) - len(stripped) + 1)
        head, value = stripped.split(":", 1)
        words = head.split()
        if not words:
            raise SyntaxErrorDsl("empty statement key", n, 1)
        current.stmts.append(
            Stmt(words[0], tuple(words[1:]), value.strip(), n,
                 len(line) - len(stripped) + 1))
    if current is not None:
        raise SyntaxErrorDsl(f"unterminated block {current.name!r}",
                             current.line)
    return doc


def print_document(doc):
    """Canonical re-emission; parse(print_document(d)) equals d."""
    lines = []
    for b in doc.blocks:
        lines.append(f"{b.kind} {b.name} {{")
        for s in b.stmts:
            head = " ".join((s.key,) + s.args)
            lines.append(f"  {head}: {s.value}")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


def documents_equal(a, b):
    ka = [(blk.kind, blk.name,
           [(s.key, s.args, s.value) for s in blk.stmts]) for blk in a.blocks]
    kb = [(blk.kind, blk.name,
           [(s.key, s.args, s.value) for s in blk.stmts]) for blk in b.blocks]
    return ka == kb


# --- value parsers -------------------------------------------------------------

def parse_names(value, stmt):
    if not value.strip():
        return []
    return [v.strip() for v in value.split(",")]


# Parentheses delimit the s-expressions whose `(table ...)` nodes name
# elements, so a name holding one could not be written there.  Any other
# character is fine: compound elements are tuples, not spelled-out names.
RESERVED = "()"


def parse_element_names(stmt):
    """parse_names for setoid and directed elements, refusing reserved
    characters."""
    names = parse_names(stmt.value, stmt)
    for name in names:
        for ch in RESERVED:
            if ch in name:
                raise SyntaxErrorDsl(
                    f"element name {name!r} uses reserved character {ch!r}",
                    stmt.line, stmt.col)
    return names


@lru_cache(maxsize=4096)
def _rational(token):
    """The Fraction a token spells; equal tokens share one object."""
    if "/" in token:
        num, den = token.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def parse_rational(token, stmt=None):
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError):
        line = stmt.line if stmt else None
        raise TypeMismatch(f"not a rational: {token!r}", line)


def parse_pairs(value, sep, stmt):
    out = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if sep not in part:
            raise TypeMismatch(f"expected 'a {sep} b' in {part!r}", stmt.line,
                               stmt.col)
        a, b = part.split(sep, 1)
        out.append((a.strip(), b.strip()))
    return out


def _tokenize_sexpr(text, line):
    tokens = []
    word = ""
    text = text.replace("=>", " => ")
    for ch in text:
        if ch in "()":
            if word:
                tokens.append(word)
                word = ""
            tokens.append(ch)
        elif ch.isspace() or ch == ",":
            if word:
                tokens.append(word)
                word = ""
        else:
            word += ch
    if word:
        tokens.append(word)
    return tokens


def _read_sexpr(tokens, pos, line):
    if pos >= len(tokens):
        raise SyntaxErrorDsl("unexpected end of expression", line)
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read_sexpr(tokens, pos, line)
            out.append(node)
        if pos >= len(tokens):
            raise SyntaxErrorDsl("missing closing parenthesis", line)
        return out, pos + 1
    if tok == ")":
        raise SyntaxErrorDsl("unexpected closing parenthesis", line)
    return tok, pos + 1


def parse_sexpr(text, line):
    tokens = _tokenize_sexpr(text, line)
    node, pos = _read_sexpr(tokens, 0, line)
    if pos != len(tokens):
        raise SyntaxErrorDsl("trailing tokens after expression", line)
    return node


def build_bic(node, line):
    if isinstance(node, str):
        if node == "id":
            return BID
        return bconst(parse_rational(node))
    head = node[0]
    if head == "const":
        return bconst(parse_rational(node[1]))
    if head == "id":
        return BID
    two = {"add": badd, "mul": bmul, "max": bmax, "min": bmin, "comp": bcomp}
    if head in two:
        return two[head](build_bic(node[1], line), build_bic(node[2], line))
    if head == "neg":
        return bneg(build_bic(node[1], line))
    if head == "abs":
        return babs(build_bic(node[1], line))
    raise TypeMismatch(f"unknown expression head {head!r}", line)


def _table_from_node(node, line):
    # (table a => 0, b => 1); commas were dropped by the tokenizer
    if not isinstance(node, list) or node[0] != "table":
        raise TypeMismatch("expected a (table ...) node", line)
    body = node[1:]
    if len(body) % 3 != 0:
        raise TypeMismatch("malformed table entry", line)
    out = {}
    for k in range(0, len(body), 3):
        if body[k + 1] != "=>" or not isinstance(body[k], str):
            raise TypeMismatch("malformed table entry", line)
        out[body[k]] = parse_rational(body[k + 2])
    return out


def build_certificate(node, sp, line):
    """Certificate tree from a parsed expression, generator names resolved
    against the names of the space sp."""
    if isinstance(node, str):
        raise TypeMismatch(f"bare token {node!r} is not a certificate", line)
    head = node[0]
    if head == "gen":
        name = node[1]
        if name not in sp.names:
            raise UnresolvedReference(f"no generator named {name!r}", line)
        return CGen(sp.names.index(name))
    if head == "const":
        return CConst(parse_rational(node[1]))
    if head == "add":
        return CAdd(build_certificate(node[1], sp, line),
                    build_certificate(node[2], sp, line))
    if head == "bic":
        return CBic(build_bic(node[1], line),
                    build_certificate(node[2], sp, line))
    if head == "eq":
        table = _table_from_node(node[2], line)
        return CEq(build_certificate(node[1], sp, line),
                   tuple(sorted(table.items())))
    if head == "ulim":
        table = _table_from_node(node[1], line)
        witnesses = []
        for wnode in node[2:]:
            if not isinstance(wnode, list) or wnode[0] != "w":
                raise TypeMismatch("uniform-limit witnesses are (w n CERT)", line)
            witnesses.append((int(wnode[1]),
                              build_certificate(wnode[2], sp, line)))
        return CULim(tuple(sorted(table.items())), tuple(witnesses))
    raise TypeMismatch(f"unknown certificate head {head!r}", line)


# --- elaboration into kernel objects --------------------------------------------

@dataclass
class Elaborated:
    doc: SpecDocument
    setoids: dict = field(default_factory=dict)
    directeds: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    subbases: dict = field(default_factory=dict)  # name -> BSpace
    certificates: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    cofinals: dict = field(default_factory=dict)  # name -> (directed name, CofinalSubset)
    cocones: dict = field(default_factory=dict)   # name -> (spectrum name, Legs)
    cones: dict = field(default_factory=dict)     # name -> (spectrum name, Legs)
    pools: dict = field(default_factory=dict)     # name -> pool description

    def spectrum(self, name, line=None):
        if name not in self.spectra:
            raise UnresolvedReference(f"no spectrum named {name!r}", line)
        return self.spectra[name]

    def space(self, name, line=None):
        if name not in self.subbases:
            raise UnresolvedReference(f"no subbase named {name!r}", line)
        return self.subbases[name]


def elaborate(doc):
    """Build every block into its kernel object, resolving references."""
    out = Elaborated(doc)
    for b in doc.of_kind("setoid"):
        elements_stmt = b.one("elements", required=True)
        elements = parse_element_names(elements_stmt)
        eq_pairs = []
        eq_stmt = b.one("equal")
        if eq_stmt:
            eq_pairs = parse_pairs(eq_stmt.value, "~", eq_stmt)
        empty = b.one_of("empty", ("false", "true")) == "true"
        out.setoids[b.name] = make_setoid(elements, eq_pairs, empty=empty)

    for b in doc.of_kind("directed"):
        elements_stmt = b.one("elements", required=True)
        elements = parse_element_names(elements_stmt)
        order_stmt = b.one("order")
        pairs = parse_pairs(order_stmt.value, "<=", order_stmt) if order_stmt else []
        b.one_of("closure", ("auto",))  # the order is always closed
        out.directeds[b.name] = make_directed(elements, pairs)

    for b in doc.of_kind("family"):
        index_stmt = b.one("index", required=True)
        index_name = index_stmt.value.strip()
        if index_name not in out.directeds:
            raise UnresolvedReference(f"no directed block named {index_name!r}",
                                      index_stmt.line)
        index = out.directeds[index_name]
        direction = b.one_of("direction", (COVARIANT, CONTRAVARIANT))
        carriers = {}
        for s in b.many("carrier"):
            if len(s.args) != 1:
                raise SyntaxErrorDsl("carrier lines read 'carrier i: SETOID'",
                                     s.line)
            ref = s.value.strip()
            if ref not in out.setoids:
                raise UnresolvedReference(f"no setoid named {ref!r}", s.line)
            carriers[s.args[0]] = out.setoids[ref]
        transports = {}
        for s in b.many("map"):
            if len(s.args) != 3 or s.args[1] != "->":
                raise SyntaxErrorDsl("map lines read 'map i -> j: a => u, ...'",
                                     s.line)
            i, j = s.args[0], s.args[2]
            table = dict(parse_pairs(s.value, "=>", s))
            src, tgt = oriented(direction, i, j)
            dom, cod = carriers.get(src), carriers.get(tgt)
            if dom is None or cod is None:
                raise UnresolvedReference(f"map for unknown carrier ({i}, {j})",
                                          s.line)
            transports[(i, j)] = make_fn(dom, cod, table)
        out.families[b.name] = make_direct_family(index, direction, carriers,
                                                  transports)

    for b in doc.of_kind("subbase"):
        carrier_stmt = b.one("carrier", required=True)
        ref = carrier_stmt.value.strip()
        if ref not in out.setoids:
            raise UnresolvedReference(f"no setoid named {ref!r}",
                                      carrier_stmt.line)
        carrier = out.setoids[ref]
        gens, names = [], []
        for s in b.many("gen"):
            if len(s.args) != 1:
                raise SyntaxErrorDsl("gen lines read 'gen name: a => 0, ...'",
                                     s.line)
            table = {
                k: parse_rational(v, s)
                for k, v in parse_pairs(s.value, "=>", s)
            }
            gens.append(RFun(carrier, table))
            names.append(s.args[0])
        out.subbases[b.name] = BSpace(carrier, tuple(gens), tuple(names))

    for b in doc.of_kind("certificate"):
        over_stmt = b.one("over", required=True)
        ref = over_stmt.value.strip()
        if ref not in out.subbases:
            raise UnresolvedReference(f"no subbase named {ref!r}", over_stmt.line)
        expr_stmt = b.one("expr", required=True)
        node = parse_sexpr(expr_stmt.value, expr_stmt.line)
        out.certificates[b.name] = build_certificate(
            node, out.subbases[ref], expr_stmt.line)

    for b in doc.of_kind("spectrum"):
        fam_stmt = b.one("family", required=True)
        fam_name = fam_stmt.value.strip()
        if fam_name not in out.families:
            raise UnresolvedReference(f"no family named {fam_name!r}",
                                      fam_stmt.line)
        fam = out.families[fam_name]
        # one space per index element, over the family's carrier there
        spaces = {}
        for s in b.many("space"):
            if len(s.args) != 1:
                raise SyntaxErrorDsl("space lines read 'space i: SUBBASE'", s.line)
            i, ref = s.args[0], s.value.strip()
            if ref not in out.subbases:
                raise UnresolvedReference(f"no subbase named {ref!r}", s.line)
            if i not in fam.index.elements:
                raise UnresolvedReference(f"space for unknown index {i!r}", s.line)
            if i in spaces:
                raise SyntaxErrorDsl(f"duplicate space line for index {i!r}", s.line)
            if not out.subbases[ref].carrier.same_as(fam.carrier(i)):
                raise TypeMismatch(
                    f"subbase {ref!r} is not over the carrier at index {i!r}", s.line)
            spaces[i] = out.subbases[ref]
        for i in fam.index.elements:
            if i not in spaces:
                raise UnresolvedReference(f"no space line for index {i!r}", b.line)
        pool_stmt = b.one("pool")
        pool = tuple(
            parse_rational(tok, pool_stmt)
            for tok in parse_names(pool_stmt.value, pool_stmt)
        ) if pool_stmt else (Fraction(0), Fraction(1))
        witness_certs = {}
        for s in b.many("witness"):
            if len(s.args) not in (3, 4) or s.args[1] != "->":
                raise SyntaxErrorDsl(
                    "witness lines read 'witness i -> j [gen]: CERT|auto'", s.line)
            i, j = s.args[0], s.args[2]
            if s.value.strip() == "auto":
                continue
            if len(s.args) != 4:
                raise SyntaxErrorDsl("explicit witnesses name the generator",
                                     s.line)
            gen_name = s.args[3]
            src, tgt = fam.ends(i, j)
            src_sub, tgt_sub = spaces.get(src), spaces.get(tgt)
            if tgt_sub is None or src_sub is None:
                raise UnresolvedReference(
                    f"witness for unknown spaces ({i}, {j})", s.line)
            if gen_name not in tgt_sub.names:
                raise UnresolvedReference(f"no generator named {gen_name!r}",
                                          s.line)
            node = parse_sexpr(s.value, s.line)
            cert = build_certificate(node, src_sub, s.line)
            witness_certs.setdefault((i, j), {})[
                tgt_sub.names.index(gen_name)] = cert
        # composite edges are derived by lifting first; anything still
        # missing (including declared-auto edges) is constructed
        spectrum = Spectrum(fam, spaces, witness_certs, pool)
        witness_certs = spectrum.witness_certs
        missing = []
        for i, j in fam.order_pairs():
            if i == j:
                continue
            tgt = spaces[fam.ends(i, j)[1]]
            have = witness_certs.get((i, j), {})
            if any(k not in have for k in range(len(tgt.gens))):
                missing.append((i, j))
        if missing:
            spectrum.witness_certs = autofill_witnesses(fam, spaces, witness_certs)
        out.spectra[b.name] = spectrum

    for b in doc.of_kind("cofinal"):
        d_stmt = b.one("directed", required=True)
        d_name = d_stmt.value.strip()
        if d_name not in out.directeds:
            raise UnresolvedReference(f"no directed block named {d_name!r}",
                                      d_stmt.line)
        index = out.directeds[d_name]
        members_stmt = b.one("members", required=True)
        members = parse_names(members_stmt.value, members_stmt)
        for m in members:
            if not index.base.has(m):
                raise UnresolvedReference(f"member {m!r} not in the index",
                                          members_stmt.line)
        cof_stmt = b.one("cof", required=True)
        cof_table = dict(parse_pairs(cof_stmt.value, "=>", cof_stmt))
        sub = make_setoid(members)
        embed = make_fn(sub, index.base, {m: m for m in members})
        cof = make_fn(index.base, sub, cof_table)
        out.cofinals[b.name] = (d_name, CofinalSubset(sub, embed, cof))

    for b in doc.of_kind("cocone") + doc.of_kind("cone"):
        spec_stmt = b.one("spectrum", required=True)
        spec_name = spec_stmt.value.strip()
        if spec_name not in out.spectra:
            raise UnresolvedReference(f"no spectrum named {spec_name!r}",
                                      spec_stmt.line)
        s = out.spectra[spec_name]
        apex_stmt = b.one("apex", required=True)
        apex_name = apex_stmt.value.strip()
        if apex_name not in out.subbases:
            raise UnresolvedReference(f"no subbase named {apex_name!r}",
                                      apex_stmt.line)
        apex = out.space(apex_name)
        legs = {}
        for stmt in b.many("leg"):
            if len(stmt.args) != 1:
                raise SyntaxErrorDsl("leg lines read 'leg i: x => y, ...'",
                                     stmt.line)
            i = stmt.args[0]
            if i not in s.fam.carriers:
                raise UnresolvedReference(f"leg for unknown index {i!r}",
                                          stmt.line)
            table = dict(parse_pairs(stmt.value, "=>", stmt))
            # a cocone's legs run into its apex, a cone's out of it
            src, dst = oriented(COVARIANT if b.kind == "cocone" else CONTRAVARIANT,
                                s.space(i), apex)
            h = make_fn(src.carrier, dst.carrier, table)
            missing = []
            legs[i] = certify_map(src, dst, h, "leg", missing)
            raise_first(missing, lambda text: TypeMismatch(text, stmt.line),
                        lambda k: f"leg {i} admits no certificate for generator {k}")
        named = out.cocones if b.kind == "cocone" else out.cones
        named[b.name] = (spec_name, Legs(apex, legs))

    for b in doc.of_kind("pool"):
        spec_stmt = b.one("spectrum", required=True)
        spec_name = spec_stmt.value.strip()
        if spec_name not in out.spectra:
            raise UnresolvedReference(f"no spectrum named {spec_name!r}",
                                      spec_stmt.line)
        space_stmt = b.one("space", required=True)
        space_name = space_stmt.value.strip()
        if space_name not in out.subbases:
            raise UnresolvedReference(f"no subbase named {space_name!r}",
                                      space_stmt.line)
        b.one_of("search", ("auto",))  # pools are always enumerated
        out.pools[b.name] = {
            "spectrum": spec_name,
            "space": space_name,
            "shape": b.one_of("shape", ("hom-into-fixed", "hom-out-of-fixed")),
        }

    return out
