"""Parser for the preference-query language.

Grammar (whitespace insignificant, ``#`` comments run to end of line):

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

from .cpnet import CPNet, PreferenceVariable
from .errors import ParseError, SemanticError
from .record import Record

KEYWORDS = frozenset({"var", "attr", "depends", "when", "prefer", "terms"})
PUNCT = frozenset(":{},=>")


class QuerySpec(Record):
    """A parsed query; ``bindings`` maps variable -> dataset attribute, and
    ``term_count`` is None without a ``terms`` clause."""

    __slots__ = ("net", "bindings", "term_count")

    def __init__(self, net: CPNet, bindings: dict[str, str], term_count: int | None = None):
        self._set(net=net, bindings=bindings, term_count=term_count)


class Token(Record):
    """``kind`` is "kw", "ident", "int", "punct" or "eof"."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        # one per lexeme, so written straight to the slots, without _set's dict
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
        elif ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = expected or (f"'{text}'" if text else kind)
            self.fail((want,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else f"'{tok.text}'"
        listing = " or ".join(expected)
        raise ParseError(f"expected {listing}, found {found}", tok.line, tok.column)

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
                term_count = int(tok.text)
            except ValueError:  # a digit int() refuses, such as '²', or over 4300 digits
                raise ParseError("term count is not an integer Python can read",
                                 tok.line, tok.column) from None
            if term_count < 1:
                raise SemanticError("term count must be at least 1", tok.line, tok.column)
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
        parents: list[Token] = []
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
        conds: list[tuple[Token, Token]] = []
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

    def cond(self) -> tuple[Token, Token]:
        var = self.expect("ident", expected="a parent variable name")
        self.expect("punct", "=")
        value = self.expect("ident", expected="a value name")
        return var, value


def _analyze(raw_vars, term_count) -> QuerySpec:
    """Semantic pass; raw declarations still carry their tokens."""
    declared: dict[str, Token] = {}
    for name_tok, _attr, _parents, _rows in raw_vars:
        if name_tok.text in declared:
            raise SemanticError(
                f"duplicate variable {name_tok.text!r}", name_tok.line, name_tok.column
            )
        declared[name_tok.text] = name_tok

    domains: dict[str, tuple[str, ...]] = {}
    for name_tok, _attr, _parents, rows in raw_vars:
        _start, _conds, order = rows[0]
        domains[name_tok.text] = tuple(t.text for t in order)

    nodes, edges, cpt, bindings = [], [], {}, {}
    for name_tok, attr_tok, parent_toks, rows in raw_vars:
        name = name_tok.text
        parents = []
        for ptok in parent_toks:
            if ptok.text == name:
                raise SemanticError(
                    f"variable {name!r} cannot depend on itself", ptok.line, ptok.column
                )
            if ptok.text not in declared:
                raise SemanticError(
                    f"unknown parent {ptok.text!r}", ptok.line, ptok.column
                )
            if ptok.text in parents:
                raise SemanticError(
                    f"duplicate parent {ptok.text!r}", ptok.line, ptok.column
                )
            parents.append(ptok.text)

        domain = domains[name]
        table = {}
        for start, conds, order_toks in rows:
            seen_values = set()
            for tok in order_toks:
                if tok.text in seen_values:
                    raise SemanticError(
                        f"value {tok.text!r} listed twice in one order",
                        tok.line,
                        tok.column,
                    )
                seen_values.add(tok.text)
            order = tuple(t.text for t in order_toks)
            if sorted(order) != sorted(domain):
                raise SemanticError(
                    f"order {order!r} is not a permutation of the domain of {name!r}",
                    start.line,
                    start.column,
                )
            if parents and not conds:
                raise SemanticError(
                    f"{name!r} has dependencies; every preference needs a when clause",
                    start.line,
                    start.column,
                )
            if conds and not parents:
                raise SemanticError(
                    f"{name!r} has no dependencies; remove the when clause",
                    start.line,
                    start.column,
                )
            by_parent: dict[str, str] = {}
            for var_tok, val_tok in conds:
                if var_tok.text not in parents:
                    raise SemanticError(
                        f"{var_tok.text!r} is not a parent of {name!r}",
                        var_tok.line,
                        var_tok.column,
                    )
                if var_tok.text in by_parent:
                    raise SemanticError(
                        f"parent {var_tok.text!r} constrained twice in one when clause",
                        var_tok.line,
                        var_tok.column,
                    )
                if val_tok.text not in domains[var_tok.text]:
                    raise SemanticError(
                        f"{val_tok.text!r} is not a value of {var_tok.text!r}",
                        val_tok.line,
                        val_tok.column,
                    )
                by_parent[var_tok.text] = val_tok.text
            if parents and set(by_parent) != set(parents):
                missing = [p for p in parents if p not in by_parent]
                raise SemanticError(
                    f"when clause must assign every parent; missing {missing}",
                    start.line,
                    start.column,
                )
            key = tuple(by_parent[p] for p in parents)
            if key in table:
                raise SemanticError(
                    f"duplicate preference row for context {dict(zip(parents, key))!r}",
                    start.line,
                    start.column,
                )
            table[key] = order

        nodes.append(PreferenceVariable(name, domain))
        edges.extend((parent, name) for parent in parents)
        cpt[name] = table
        bindings[name] = attr_tok.text
    net = CPNet(nodes=tuple(nodes), edges=tuple(edges), cpt=cpt)
    return QuerySpec(net, bindings, term_count)


def parse_query(text: str) -> QuerySpec:
    """Parse query text into its net, or raise; syntax and meaning errors
    carry a precise location."""
    return _Parser(_tokenize(text)).query()


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
