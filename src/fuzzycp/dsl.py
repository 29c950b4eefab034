"""Parser for the preference-query language.

Blanks (space, tab, CR, LF) and ``#`` comments to the end of the line only
separate lexemes.  A word is a run of letters, digits and ``_``: a keyword
or IDENT if it starts with a letter or ``_``, an INT if with a digit.

Grammar:

    query    := { var_decl } [ "terms" INT ]
    var_decl := "var" IDENT ":" "attr" IDENT "{"
                    [ "depends" IDENT { "," IDENT } ]
                    pref { pref }
                "}"
    pref     := [ "when" cond { "," cond } ":" ] "prefer" IDENT { ">" IDENT }
    cond     := IDENT "=" IDENT

A variable's domain is fixed by its first preference row; every later row
must reorder exactly those values.  Variables with a ``depends`` clause
must qualify every row with a ``when`` covering all parents; variables
without one must not use ``when`` at all.

The result is the net itself: a CPNet whose nodes, edges and cpt rows
keep declaration order, plus each variable's attribute binding and the
optional term count.

Syntax problems raise ParseError, meaning problems raise SemanticError;
both carry 1-based line:column positions.  A cyclic net, or one whose
rows miss a parent context, fails as the CPNet is built, with a
ValidationError, which has no position.
"""

from __future__ import annotations

import re

from .cpnet import CPNet, PreferenceVariable
from .errors import ParseError, SemanticError
from .record import Record

KEYWORDS = frozenset({"var", "attr", "depends", "when", "prefer", "terms"})


class QuerySpec(Record):
    """A parsed query; ``bindings`` maps variable -> dataset attribute, and
    ``term_count`` is None without a ``terms`` clause."""

    __slots__ = ("net", "bindings", "term_count")  # a CPNet, a dict, an int or None
    _defaults = dict(term_count=None)


_LEXEME = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)|(?P<punct>[:{},=>])|(?P<word>\w+)|(?P<eof>\Z)|.", re.DOTALL
)


def _kind(tok: re.Match) -> str | None:
    """kw, ident, int, punct or eof; None for a character that starts no lexeme."""
    if tok.lastgroup != "word":
        return tok.lastgroup
    head = tok[0][0]
    if head.isalpha() or head == "_":
        return "kw" if tok[0] in KEYWORDS else "ident"
    return "int" if head.isdigit() else None


def _where(tok: re.Match) -> tuple[int, int]:
    """The 1-based line and column where ``tok`` starts."""
    text, start = tok.string, tok.start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Parser:
    def __init__(self, tokens: list[re.Match]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> re.Match:
        return self.tokens[self.pos]

    def advance(self) -> re.Match:
        tok = self.tokens[self.pos]
        if tok.lastgroup != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return _kind(tok) == kind and (text is None or tok[0] == text)

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> re.Match:
        tok = self.peek()
        if not self.at(kind, text):
            want = expected or (f"'{text}'" if text else kind)
            self.fail((want,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.lastgroup == "eof" else f"'{tok[0]}'"
        listing = " or ".join(expected)
        raise ParseError(f"expected {listing}, found {found}", *_where(tok))

    # --- grammar ---------------------------------------------------------

    def query(self) -> QuerySpec:
        raw_vars = []
        while self.at("kw", "var"):
            raw_vars.append(self.var_decl())
        term_count = None
        if self.at("kw", "terms"):
            self.advance()
            tok = self.expect("int", expected="an integer")
            try:
                if not tok[0].isdecimal():  # as '12ab', '1_000' (which int() reads) or '1²'
                    raise ValueError
                term_count = int(tok[0])
            except ValueError:  # or over 4300 digits
                raise ParseError("term count is not an integer Python can read",
                                 *_where(tok)) from None
            if term_count < 1:
                raise SemanticError("term count must be at least 1", *_where(tok))
        if not self.at("eof"):
            self.fail(("'var'", "'terms'", "end of input"))
        return _analyze(raw_vars, term_count)

    def var_decl(self):
        self.expect("kw", "var")
        name = self.expect("ident", expected="a variable name")
        self.expect("punct", ":")
        self.expect("kw", "attr")
        attribute = self.expect("ident", expected="an attribute name")
        self.expect("punct", "{")
        parents: list[re.Match] = []
        if self.at("kw", "depends"):
            self.advance()
            parents.append(self.expect("ident", expected="a parent variable name"))
            while self.at("punct", ","):
                self.advance()
                parents.append(self.expect("ident", expected="a parent variable name"))
        rows = [self.pref()]
        while self.at("kw", "when") or self.at("kw", "prefer"):
            rows.append(self.pref())
        self.expect("punct", "}", expected="'when', 'prefer', or '}'")
        return name, attribute, parents, rows

    def pref(self):
        start = self.peek()
        conds: list[tuple[re.Match, re.Match]] = []
        if self.at("kw", "when"):
            self.advance()
            conds.append(self.cond())
            while self.at("punct", ","):
                self.advance()
                conds.append(self.cond())
            self.expect("punct", ":")
        self.expect("kw", "prefer")
        order = [self.expect("ident", expected="a value name")]
        while self.at("punct", ">"):
            self.advance()
            order.append(self.expect("ident", expected="a value name"))
        return start, conds, order

    def cond(self) -> tuple[re.Match, re.Match]:
        var = self.expect("ident", expected="a parent variable name")
        self.expect("punct", "=")
        value = self.expect("ident", expected="a value name")
        return var, value


def _analyze(raw_vars, term_count) -> QuerySpec:
    """Semantic pass; raw declarations still carry their tokens."""
    domains: dict[str, tuple[str, ...]] = {}  # a variable's values, from its first row
    for name_tok, _attr, _parents, rows in raw_vars:
        if name_tok[0] in domains:
            raise SemanticError(
                f"duplicate variable {name_tok[0]!r}", *_where(name_tok)
            )
        _start, _conds, order = rows[0]
        domains[name_tok[0]] = tuple(t[0] for t in order)

    nodes, edges, cpt, bindings = [], [], {}, {}
    for name_tok, attr_tok, parent_toks, rows in raw_vars:
        name = name_tok[0]
        parents = []
        for ptok in parent_toks:
            if ptok[0] == name:
                raise SemanticError(
                    f"variable {name!r} cannot depend on itself", *_where(ptok)
                )
            if ptok[0] not in domains:
                raise SemanticError(
                    f"unknown parent {ptok[0]!r}", *_where(ptok)
                )
            if ptok[0] in parents:
                raise SemanticError(
                    f"duplicate parent {ptok[0]!r}", *_where(ptok)
                )
            parents.append(ptok[0])

        domain = domains[name]
        table = {}
        for start, conds, order_toks in rows:
            seen_values = set()
            for tok in order_toks:
                if tok[0] in seen_values:
                    raise SemanticError(
                        f"value {tok[0]!r} listed twice in one order",
                        *_where(tok),
                    )
                seen_values.add(tok[0])
            order = tuple(t[0] for t in order_toks)
            if sorted(order) != sorted(domain):
                raise SemanticError(
                    f"order {order!r} is not a permutation of the domain of {name!r}",
                    *_where(start),
                )
            if parents and not conds:
                raise SemanticError(
                    f"{name!r} has dependencies; every preference needs a when clause",
                    *_where(start),
                )
            if conds and not parents:
                raise SemanticError(
                    f"{name!r} has no dependencies; remove the when clause",
                    *_where(start),
                )
            by_parent: dict[str, str] = {}
            for var_tok, val_tok in conds:
                if var_tok[0] not in parents:
                    raise SemanticError(
                        f"{var_tok[0]!r} is not a parent of {name!r}",
                        *_where(var_tok),
                    )
                if var_tok[0] in by_parent:
                    raise SemanticError(
                        f"parent {var_tok[0]!r} constrained twice in one when clause",
                        *_where(var_tok),
                    )
                if val_tok[0] not in domains[var_tok[0]]:
                    raise SemanticError(
                        f"{val_tok[0]!r} is not a value of {var_tok[0]!r}",
                        *_where(val_tok),
                    )
                by_parent[var_tok[0]] = val_tok[0]
            if parents and set(by_parent) != set(parents):
                missing = [p for p in parents if p not in by_parent]
                raise SemanticError(
                    f"when clause must assign every parent; missing {missing}",
                    *_where(start),
                )
            key = tuple(by_parent[p] for p in parents)
            if key in table:
                raise SemanticError(
                    f"duplicate preference row for context {dict(zip(parents, key))!r}",
                    *_where(start),
                )
            table[key] = order

        nodes.append(PreferenceVariable(name, domain))
        edges.extend((parent, name) for parent in parents)
        cpt[name] = table
        bindings[name] = attr_tok[0]
    net = CPNet(nodes=tuple(nodes), edges=tuple(edges), cpt=cpt)
    return QuerySpec(net, bindings, term_count)


def parse_query(text: str) -> QuerySpec:
    """Parse query text into its net, or raise; syntax and meaning errors
    carry a precise location.  The pattern's matches are the tokens."""
    tokens = [tok for tok in _LEXEME.finditer(text) if tok.lastgroup != "skip"]
    for tok in tokens:
        if _kind(tok) is None:
            raise ParseError(f"unexpected character {tok[0][0]!r}", *_where(tok))
    return _Parser(tokens).query()


def format_query(spec: QuerySpec) -> str:
    """Canonical pretty-print of the net's rows in stored order.

    Parsing the output reproduces ``spec`` whenever every domain is in the
    order of its first cpt row, the order the language fixes it in.
    """
    net = spec.net
    blocks = []
    for node in net.nodes:
        parents = net.parent_names(node.name)
        lines = [f"var {node.name}: attr {spec.bindings[node.name]} {{"]
        if parents:
            lines.append(f"    depends {', '.join(parents)}")
        for key, order in net.cpt[node.name].items():
            order = " > ".join(order)
            if parents:
                conds = ", ".join(f"{p} = {val}" for p, val in zip(parents, key))
                lines.append(f"    when {conds}: prefer {order}")
            else:
                lines.append(f"    prefer {order}")
        lines.append("}")
        blocks.append("\n".join(lines))
    if spec.term_count is not None:
        blocks.append(f"terms {spec.term_count}")
    return "\n\n".join(blocks) + "\n"
