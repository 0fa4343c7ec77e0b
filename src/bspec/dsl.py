"""Line-oriented description language for carriers, orders, families,
subbases, certificates, spectra, cofinal subsets, pools, and check suites.

A document is a sequence of blocks `kind name { ... }` whose statements are
`key [args] : values` lines.  Rationals are written `num/den` or as
integers, finite maps as `a => u, b => v`, order relations as `0 <= 1`,
equalities as `a ~ b`, and certificates as parenthesized trees such as
`(bic (add (const 1) (neg id)) (gen f0))`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .families import COVARIANT, CONTRAVARIANT, make_direct_family, oriented
from .limits import Legs
from .order import CofinalSubset, make_directed
from .report import KernelError, raise_first
from .setoid import make_fn, make_setoid
from .spectra import Spectrum, complete_witnesses
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


class Stmt:
    """A `key [args]: value` line.  `text` is the line as written, less
    its comment; its column is worked out only when a refusal reads it."""

    __slots__ = ("key", "args", "value", "line", "text")

    def __init__(self, key, args, value, line, text):
        self.key = key
        self.args = args
        self.value = value
        self.line = line
        self.text = text

    @property
    def col(self):
        return _column(self.text)


def _column(text):
    """The 1-based column at which a line's text starts."""
    return len(text) - len(text.lstrip()) + 1


class Block:
    """A parsed block: its statements in document order, indexed by key
    once, when the block is made."""

    def __init__(self, kind, name, stmts, line):
        self.kind = kind
        self.name = name
        self.stmts = stmts
        self.line = line
        self._by_key = by_key = {}  # key -> its statements, in order
        for s in stmts:
            if s.key in by_key:
                by_key[s.key] += [s]
            else:
                by_key[s.key] = [s]

    def one(self, key, required=False):
        if key not in self._by_key:
            if required:
                raise SyntaxErrorDsl(f"block {self.name!r} needs a {key!r} line",
                                     self.line)
            return None
        hits = self._by_key[key]
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
        return self._by_key[key] if key in self._by_key else []


class SpecDocument:
    def __init__(self, blocks=None):
        self.blocks = [] if blocks is None else blocks

    def of_kind(self, kind):
        return [b for b in self.blocks if b.kind == kind]


def parse(text):
    """Parse a document; errors carry line and column positions.

    Each line is read once: a comment is cut off only when the line holds
    a `#`, a block header is split into its words, and a statement is
    partitioned at its first `:`, the words before it split and the value
    after it stripped."""
    doc = SpecDocument()
    current = None  # (kind, name, line) of the open block
    stmts = []  # the open block's statements
    seen = set()  # (kind, name) of every block header read so far
    for n, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        if current is None:
            parts = line.split()
            if not parts:
                continue
            if parts[2:] != ["{"]:
                raise SyntaxErrorDsl(
                    f"expected 'kind name {{', got {line.strip()!r}", n, _column(line))
            kind, name = parts[0], parts[1]
            if kind not in BLOCK_KINDS:
                raise SyntaxErrorDsl(
                    f"unknown block kind {kind!r}; expected one of "
                    + ", ".join(BLOCK_KINDS), n, 1)
            if (kind, name) in seen:
                raise SyntaxErrorDsl(f"duplicate block {kind} {name}", n, 1)
            seen.add((kind, name))
            current, stmts = (kind, name, n), []
            continue
        head, colon, value = line.partition(":")
        words = head.split()
        if not colon:
            if not words:
                continue
            if words == ["}"]:
                kind, name, start = current
                doc.blocks.append(Block(kind, name, stmts, start))
                current = None
                continue
            raise SyntaxErrorDsl(f"expected 'key: value', got {line.strip()!r}",
                                 n, _column(line))
        if not words:
            raise SyntaxErrorDsl("empty statement key", n, 1)
        stmts.append(Stmt(words[0], tuple(words[1:]), value.strip(), n, line))
    if current is not None:
        kind, name, start = current
        raise SyntaxErrorDsl(f"unterminated block {name!r}", start)
    return doc


# --- value parsers -------------------------------------------------------------

def parse_names(value):
    if not value.strip():
        return []
    return [v.strip() for v in value.split(",")]


# Parentheses delimit the s-expressions whose `(table ...)` nodes name
# elements, so a name holding one could not be written there.  Any other
# character is fine: compound elements are tuples, not spelled-out names.
RESERVED = "()"


def _listed_names(stmt, what):
    """parse_names of an elements or members line, refusing an empty item
    at the line, such as the one a trailing comma leaves."""
    names = parse_names(stmt.value)
    if "" in names:
        raise SyntaxErrorDsl(f"empty {what} name in {stmt.value!r}", stmt.line,
                             stmt.col)
    return names


def parse_element_names(stmt):
    """_listed_names for setoid and directed elements, refusing reserved
    characters."""
    names = _listed_names(stmt, "element")
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


@lru_cache(maxsize=4096)
def _positions(names):
    """The position of each generator name, its first where one repeats;
    equal name tuples share one table."""
    return {n: k for k, n in reversed(tuple(enumerate(names)))}


def parse_rational(token, line=None):
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError, TypeError):  # TypeError: a list
        raise TypeMismatch(f"not a rational: {_sexpr_text(token)!r}", line) from None


def _integer(token, line):
    try:
        return int(token)
    except (ValueError, TypeError):  # TypeError: a list
        raise TypeMismatch(f"not an integer: {_sexpr_text(token)!r}", line) from None


def parse_pairs(value, sep, stmt):
    """The (a, b) of each `a SEP b` in a comma list; a blank item is
    skipped."""
    out = []
    for part in value.split(","):
        a, found, b = part.partition(sep)
        if found:
            out.append((a.strip(), b.strip()))
        elif part.strip():
            raise TypeMismatch(f"expected 'a {sep} b' in {part.strip()!r}",
                               stmt.line, stmt.col)
    return out


SEXPR_DEPTH = 256  # deepest nesting of parentheses an expression may have


def parse_sexpr(text, line):
    """The expression text spells, as nested lists of words, read in one
    pass: `(`, `)` and `=>` are tokens, and whitespace and commas separate
    them.  An expression nested deeper than SEXPR_DEPTH is refused, since
    the certificate builders and walks recurse once per level."""
    tokens = (text.replace("=>", " => ").replace("(", " ( ").replace(")", " ) ")
              .replace(",", " ").split())
    root = inner = []  # root holds the expression once read
    outer, depth = [], 0  # the open lists around inner, innermost last
    for tok in tokens:
        if inner is root and root:
            raise SyntaxErrorDsl("trailing tokens after expression", line)
        if tok == "(":
            depth += 1
            if depth > SEXPR_DEPTH:
                raise SyntaxErrorDsl(
                    f"expression nested deeper than SEXPR_DEPTH = {SEXPR_DEPTH}", line)
            node = []
            inner.append(node)
            outer.append(inner)
            inner = node
        elif tok == ")":
            if not depth:
                raise SyntaxErrorDsl("unexpected closing parenthesis", line)
            depth -= 1
            inner = outer.pop()
        else:
            inner.append(tok)
    if depth:
        raise SyntaxErrorDsl("missing closing parenthesis", line)
    if not root:
        raise SyntaxErrorDsl("unexpected end of expression", line)
    return root[0]


def _operands(node, line, arity, what):
    """(head, operands) of a parsed (head ...) list, refused at `line`
    unless its head is a word `arity` names and it has that many operands
    (None: one or more)."""
    if not node or not isinstance(node[0], str):
        raise TypeMismatch(f"{what} {_sexpr_text(node)} has no head word", line)
    head, args = node[0], node[1:]
    if head not in arity:
        raise TypeMismatch(f"unknown {what} head {head!r}", line)
    n = arity[head]
    if (len(args) != n) if n is not None else not args:
        takes = {None: "one or more operands", 1: "1 operand"}.get(n, f"{n} operands")
        raise TypeMismatch(f"({head} ...) takes {takes}, got {len(args)}", line)
    return head, args


def _sexpr_text(node):
    """A parsed expression as it was written, less commas."""
    if isinstance(node, str):
        return node
    return "(" + " ".join(map(_sexpr_text, node)) + ")"


_BIC_OPS = {"add": badd, "mul": bmul, "max": bmax, "min": bmin, "comp": bcomp,
            "neg": bneg, "abs": babs}
_BIC_ARITY = {"const": 1, "id": 0, "neg": 1, "abs": 1,
              "add": 2, "mul": 2, "max": 2, "min": 2, "comp": 2}
_CERT_ARITY = {"gen": 1, "const": 1, "add": 2, "bic": 2, "eq": 2, "ulim": None}


def build_bic(node, line):
    if isinstance(node, str):
        return BID if node == "id" else bconst(parse_rational(node, line))
    head, args = _operands(node, line, _BIC_ARITY, "expression")
    if head == "const":
        return bconst(parse_rational(args[0], line))
    if head == "id":
        return BID
    return _BIC_OPS[head](*(build_bic(a, line) for a in args))


def _table_from_node(node, line):
    # (table a => 0, b => 1); commas were dropped by the tokenizer
    if not isinstance(node, list) or node[:1] != ["table"]:
        raise TypeMismatch("expected a (table ...) node", line)
    body = node[1:]
    if len(body) % 3 != 0:
        raise TypeMismatch("malformed table entry", line)
    out = {}
    for k in range(0, len(body), 3):
        if body[k + 1] != "=>" or not isinstance(body[k], str):
            raise TypeMismatch("malformed table entry", line)
        out[body[k]] = parse_rational(body[k + 2], line)
    return out


def build_certificate(node, sp, line):
    """Certificate tree from a parsed expression, generator names resolved
    against the names of the space sp."""
    if isinstance(node, str):
        raise TypeMismatch(f"bare token {node!r} is not a certificate", line)
    head, args = _operands(node, line, _CERT_ARITY, "certificate")
    if head == "gen":
        name = args[0]
        if name not in sp.names and not isinstance(name, str):
            raise TypeMismatch(f"{_sexpr_text(name)} is not a generator name", line)
        return CGen(_lookup(_positions(sp.names), name, "generator", line))
    if head == "const":
        return CConst(parse_rational(args[0], line))
    if head == "add":
        return CAdd(build_certificate(args[0], sp, line),
                    build_certificate(args[1], sp, line))
    if head == "bic":
        return CBic(build_bic(args[0], line), build_certificate(args[1], sp, line))
    if head == "eq":
        table = _table_from_node(args[1], line)
        return CEq(build_certificate(args[0], sp, line),
                   tuple(sorted(table.items())))
    table = _table_from_node(args[0], line)  # ulim, the one head left
    witnesses = []
    for wnode in args[1:]:
        if not isinstance(wnode, list) or wnode[:1] != ["w"] or len(wnode) != 3:
            raise TypeMismatch("uniform-limit witnesses are (w n CERT)", line)
        witnesses.append((_integer(wnode[1], line),
                          build_certificate(wnode[2], sp, line)))
    return CULim(tuple(sorted(table.items())), tuple(witnesses))


# --- elaboration into kernel objects --------------------------------------------

def _lookup(table, name, what, line=None):
    """What `table` holds under `name`, refused as an unresolved reference
    to a `what` at `line` (None for a name given on the command line)."""
    if name not in table:
        raise UnresolvedReference(f"no {what} named {name!r}", line)
    return table[name]


def _named(b, key, table, what):
    """(NAME, table[NAME]) of block b's required `key: NAME` line."""
    stmt = b.one(key, required=True)
    name = stmt.value.strip()
    return name, _lookup(table, name, what, stmt.line)


def _at(line, build, *args, **kwargs):
    """build(*args, **kwargs), a kernel refusal of it re-raised as the
    refusal of the statement at `line`."""
    try:
        return build(*args, **kwargs)
    except KernelError as exc:
        raise DslError(str(exc), line) from None


def _misshapen(s, usage):
    """The refusal of statement s, whose arguments do not fit `usage`."""
    return SyntaxErrorDsl(f"{s.key} lines read '{s.key} {usage}'", s.line)


class Elaborated:
    def __init__(self, setoids=None, directeds=None, families=None, subbases=None,
                 certificates=None, spectra=None, cofinals=None, cocones=None,
                 cones=None, pools=None):
        self.setoids = {} if setoids is None else setoids
        self.directeds = {} if directeds is None else directeds
        self.families = {} if families is None else families
        self.subbases = {} if subbases is None else subbases  # name -> BSpace
        self.certificates = {} if certificates is None else certificates
        self.spectra = {} if spectra is None else spectra
        # name -> (directed name, CofinalSubset)
        self.cofinals = {} if cofinals is None else cofinals
        self.cocones = {} if cocones is None else cocones  # name -> (spectrum name, Legs)
        self.cones = {} if cones is None else cones  # name -> (spectrum name, Legs)
        self.pools = {} if pools is None else pools  # name -> pool description


def elaborate(doc):
    """Build every block into its kernel object, resolving references."""
    out = Elaborated()
    for b in doc.of_kind("setoid"):
        elements_stmt = b.one("elements", required=True)
        elements = parse_element_names(elements_stmt)
        eq_pairs = []
        eq_stmt = b.one("equal")
        if eq_stmt:
            eq_pairs = parse_pairs(eq_stmt.value, "~", eq_stmt)
            known = set(elements)
            for x, y in eq_pairs:
                if x not in known or y not in known:
                    raise UnresolvedReference(
                        f"equality pair ({x}, {y}) mentions unknown element",
                        eq_stmt.line)
        empty = b.one_of("empty", ("false", "true")) == "true"
        if not (elements or empty):
            raise SyntaxErrorDsl(
                "no elements listed; an empty setoid says 'empty: true'",
                elements_stmt.line)
        out.setoids[b.name] = _at(elements_stmt.line, make_setoid, elements, eq_pairs,
                                  empty=empty)

    for b in doc.of_kind("directed"):
        elements_stmt = b.one("elements", required=True)
        elements = parse_element_names(elements_stmt)
        if not elements:
            raise SyntaxErrorDsl("a directed block needs at least one element",
                                 elements_stmt.line)
        order_stmt = b.one("order")
        pairs = parse_pairs(order_stmt.value, "<=", order_stmt) if order_stmt else []
        b.one_of("closure", ("auto",))  # the order is always closed
        base = _at(elements_stmt.line, make_setoid, elements)
        out.directeds[b.name] = _at((order_stmt or b).line, make_directed, base, pairs)

    for b in doc.of_kind("family"):
        _, index = _named(b, "index", out.directeds, "directed block")
        direction = b.one_of("direction", (COVARIANT, CONTRAVARIANT))
        carriers = {}
        for s in b.many("carrier"):
            if len(s.args) != 1:
                raise _misshapen(s, "i: SETOID")
            i = s.args[0]
            carrier = _lookup(out.setoids, s.value.strip(), "setoid", s.line)
            if i not in index.base.class_id:  # Setoid.has, inlined
                raise UnresolvedReference(f"carrier for unknown index {i!r}", s.line)
            if i in carriers:
                raise SyntaxErrorDsl(f"duplicate carrier line for index {i!r}", s.line)
            carriers[i] = carrier
        transports = {}
        for s in b.many("map"):
            if len(s.args) != 3 or s.args[1] != "->":
                raise _misshapen(s, "i -> j: a => u, ...")
            i, j = s.args[0], s.args[2]
            if (i, j) in transports:
                raise SyntaxErrorDsl(f"duplicate map line for edge ({i}, {j})", s.line)
            table = dict(parse_pairs(s.value, "=>", s))
            src, tgt = oriented(direction, i, j)
            dom, cod = carriers.get(src), carriers.get(tgt)
            if dom is None or cod is None:
                raise UnresolvedReference(f"map for unknown carrier ({i}, {j})",
                                          s.line)
            transports[(i, j)] = _at(s.line, make_fn, dom, cod, table)
        out.families[b.name] = _at(b.line, make_direct_family, index, direction,
                                   carriers, transports)

    for b in doc.of_kind("subbase"):
        _, carrier = _named(b, "carrier", out.setoids, "setoid")
        gens, names = [], []
        for s in b.many("gen"):
            if len(s.args) != 1:
                raise _misshapen(s, "name: a => 0, ...")
            table = {
                k: parse_rational(v, s.line)
                for k, v in parse_pairs(s.value, "=>", s)
            }
            gens.append(_at(s.line, RFun, carrier, table))
            names.append(s.args[0])
        out.subbases[b.name] = BSpace(carrier, tuple(gens), tuple(names))

    for b in doc.of_kind("certificate"):
        _, sp = _named(b, "over", out.subbases, "subbase")
        expr_stmt = b.one("expr", required=True)
        node = parse_sexpr(expr_stmt.value, expr_stmt.line)
        out.certificates[b.name] = build_certificate(node, sp, expr_stmt.line)

    for b in doc.of_kind("spectrum"):
        _, fam = _named(b, "family", out.families, "family")
        # one space per index element, over the family's carrier there
        spaces = {}
        for s in b.many("space"):
            if len(s.args) != 1:
                raise _misshapen(s, "i: SUBBASE")
            i, ref = s.args[0], s.value.strip()
            sp = _lookup(out.subbases, ref, "subbase", s.line)
            if i not in fam.index.base.class_id:  # Setoid.has, inlined
                raise UnresolvedReference(f"space for unknown index {i!r}", s.line)
            if i in spaces:
                raise SyntaxErrorDsl(f"duplicate space line for index {i!r}", s.line)
            if not sp.carrier.same_as(fam.carrier(i)):
                raise TypeMismatch(
                    f"subbase {ref!r} is not over the carrier at index {i!r}", s.line)
            spaces[i] = sp
        for i in fam.index.elements:
            if i not in spaces:
                raise UnresolvedReference(f"no space line for index {i!r}", b.line)
        pool_stmt = b.one("pool")
        pool = tuple(
            parse_rational(tok, pool_stmt.line)
            for tok in parse_names(pool_stmt.value)
        ) if pool_stmt else (Fraction(0), Fraction(1))
        witness_certs = {}
        for s in b.many("witness"):
            if len(s.args) not in (3, 4) or s.args[1] != "->":
                raise _misshapen(s, "i -> j [gen]: CERT|auto")
            i, j = s.args[0], s.args[2]
            # an order pair names index elements, and each has a space
            if i == j or (i, j) not in fam.index:
                raise UnresolvedReference(
                    f"witness edge ({i}, {j}) is not an order pair i <= j with i != j",
                    s.line)
            if s.value.strip() == "auto":
                continue
            if len(s.args) != 4:
                raise SyntaxErrorDsl("explicit witnesses name the generator",
                                     s.line)
            src, tgt = fam.ends(i, j)
            k = _lookup(_positions(spaces[tgt].names), s.args[3], "generator",
                        s.line)
            edge = witness_certs.setdefault((i, j), {})
            if k in edge:
                raise SyntaxErrorDsl(f"duplicate witness line for generator "
                                     f"{s.args[3]!r} on edge ({i}, {j})", s.line)
            edge[k] = build_certificate(parse_sexpr(s.value, s.line), spaces[src],
                                        s.line)
        certs = _at(b.line, complete_witnesses, fam, spaces, witness_certs)
        out.spectra[b.name] = Spectrum(fam, spaces, certs, pool)

    for b in doc.of_kind("cofinal"):
        d_name, index = _named(b, "directed", out.directeds, "directed block")
        members_stmt = b.one("members", required=True)
        members = _listed_names(members_stmt, "member")
        if not members:
            raise SyntaxErrorDsl("a cofinal block needs at least one member",
                                 members_stmt.line)
        for m in members:
            if not index.base.has(m):
                raise UnresolvedReference(f"member {m!r} not in the index",
                                          members_stmt.line)
        cof_stmt = b.one("cof", required=True)
        cof_table = dict(parse_pairs(cof_stmt.value, "=>", cof_stmt))
        sub = _at(members_stmt.line, make_setoid, members)
        embed = make_fn(sub, index.base, {m: m for m in members})
        cof = _at(cof_stmt.line, make_fn, index.base, sub, cof_table)
        out.cofinals[b.name] = (d_name, CofinalSubset(sub, embed, cof))

    for b in doc.of_kind("cocone") + doc.of_kind("cone"):
        spec_name, s = _named(b, "spectrum", out.spectra, "spectrum")
        _, apex = _named(b, "apex", out.subbases, "subbase")
        legs = {}
        for stmt in b.many("leg"):
            if len(stmt.args) != 1:
                raise _misshapen(stmt, "i: x => y, ...")
            i = stmt.args[0]
            if i not in s.fam.carriers:
                raise UnresolvedReference(f"leg for unknown index {i!r}",
                                          stmt.line)
            if i in legs:
                raise SyntaxErrorDsl(f"duplicate leg line for index {i!r}", stmt.line)
            table = dict(parse_pairs(stmt.value, "=>", stmt))
            # a cocone's legs run into its apex, a cone's out of it
            src, dst = oriented(COVARIANT if b.kind == "cocone" else CONTRAVARIANT,
                                s.space(i), apex)
            h = _at(stmt.line, make_fn, src.carrier, dst.carrier, table)
            missing = []
            legs[i] = certify_map(src, dst, h, "leg", missing)
            raise_first(missing, lambda text: TypeMismatch(text, stmt.line),
                        lambda k: f"leg {i} admits no certificate for generator {k}")
        named = out.cocones if b.kind == "cocone" else out.cones
        named[b.name] = (spec_name, Legs(apex, legs))

    for b in doc.of_kind("pool"):
        spec_name, _ = _named(b, "spectrum", out.spectra, "spectrum")
        space_name, _ = _named(b, "space", out.subbases, "subbase")
        b.one_of("search", ("auto",))  # pools are always enumerated
        out.pools[b.name] = {
            "spectrum": spec_name,
            "space": space_name,
            "shape": b.one_of("shape", ("hom-into-fixed", "hom-out-of-fixed")),
            "line": b.line,
        }

    return out
