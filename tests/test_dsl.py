import random
import re

import pytest

from fuzzycp import (
    ConfigError,
    CPNet,
    ParseError,
    PreferenceVariable,
    QuerySpec,
    SemanticError,
    format_query,
    parse_query,
)
from helpers import random_cpnet

# Valid corpus: every program must survive parse -> pretty-print -> parse
# unchanged (the pretty-printed form is the canonical fixpoint).
VALID_PROGRAMS = [
    # 1: minimal program
    "var color: attr c { prefer red > green }",
    # 2: several unconditional variables
    """
    var price: attr cost { prefer low > mid > high }
    var size: attr sqm { prefer big > small }
    """,
    # 3: conditional chain
    """
    var cost: attr price { prefer low > mid > high }
    var wear: attr km {
        depends cost
        when cost = low: prefer high > low
        when cost = mid: prefer low > high
        when cost = high: prefer low > high
    }
    """,
    # 4: two parents, full context coverage
    """
    var a: attr x { prefer a1 > a2 }
    var b: attr y { prefer b1 > b2 }
    var c: attr z {
        depends a, b
        when a = a1, b = b1: prefer c1 > c2
        when a = a1, b = b2: prefer c2 > c1
        when a = a2, b = b1: prefer c1 > c2
        when a = a2, b = b2: prefer c2 > c1
    }
    """,
    # 5: comments everywhere
    """
    # a comment up top
    var v: attr a { # trailing comment
        prefer x > y # another
    } # and one more
    # the end
    """,
    # 6: hostile whitespace
    "var v:attr a{prefer x>y}",
    "\n\n\nvar v :  attr a \t{ prefer x  >  y }\n\n",
    # 8: terms clause
    """
    var v: attr a { prefer x > y }
    terms 3
    """,
    # 9: single-value domain
    "var only: attr a { prefer solo }",
    # 10: single-value parent
    """
    var flag: attr f { prefer on }
    var v: attr a {
        depends flag
        when flag = on: prefer x > y
    }
    """,
    # 11: four-value domain
    "var grade: attr g { prefer a > b > c > d }",
    # 12: deep chain
    """
    var a: attr w { prefer a1 > a2 }
    var b: attr x { depends a when a = a1: prefer b1 > b2 when a = a2: prefer b2 > b1 }
    var c: attr y { depends b when b = b1: prefer c1 > c2 when b = b2: prefer c2 > c1 }
    var d: attr z { depends c when c = c1: prefer d1 > d2 when c = c2: prefer d2 > d1 }
    """,
    # 13: underscores and digits in identifiers
    "var my_var2: attr col_7 { prefer v_1 > v_2 }",
    # 14: two variables bound to one attribute
    """
    var a: attr shared { prefer low > high }
    var b: attr shared { prefer high > low }
    """,
    # 15: ternary child of a binary parent
    """
    var p: attr x { prefer p1 > p2 }
    var q: attr y {
        depends p
        when p = p1: prefer q2 > q1 > q3
        when p = p2: prefer q3 > q1 > q2
    }
    """,
    # 16: forward reference to a later variable
    """
    var child: attr x {
        depends parent
        when parent = t: prefer c1 > c2
        when parent = f: prefer c2 > c1
    }
    var parent: attr y { prefer t > f }
    """,
    # 17: terms only, no variables
    "terms 4",
    # 18: empty program
    "",
    # 19: keyword-adjacent identifiers
    "var variant: attr attrs { prefer preferred > terminal }",
    # 20: larger terms count
    """
    var v: attr a { prefer x > y > z }
    terms 100
    """,
    # 21: reversed declaration order inside when
    """
    var a: attr x { prefer a1 > a2 }
    var b: attr y { prefer b1 > b2 }
    var c: attr z {
        depends b, a
        when b = b1, a = a1: prefer c1 > c2
        when b = b1, a = a2: prefer c1 > c2
        when b = b2, a = a1: prefer c2 > c1
        when b = b2, a = a2: prefer c2 > c1
    }
    """,
    # 22: conditions written out of depends order (normalized on parse)
    """
    var a: attr x { prefer a1 > a2 }
    var b: attr y { prefer b1 > b2 }
    var c: attr z {
        depends a, b
        when b = b1, a = a1: prefer c1 > c2
        when b = b2, a = a1: prefer c2 > c1
        when b = b1, a = a2: prefer c1 > c2
        when b = b2, a = a2: prefer c2 > c1
    }
    """,
]

# Invalid corpus: (program, expected exception, line, column, message piece)
INVALID_PROGRAMS = [
    (
        "var x: attr a {\n    prefer red > red\n}",
        SemanticError, 2, 18, "listed twice",
    ),
    (
        "var x: attr a {\n    depends size\n    prefer red > green\n}",
        SemanticError, 2, 13, "unknown parent",
    ),
    (
        "var x attr a { prefer r > g }",
        ParseError, 1, 7, "expected ':'",
    ),
    (
        "var x: attr a prefer r > g }",
        ParseError, 1, 15, "expected '{'",
    ),
    (
        "foo",
        ParseError, 1, 1, "expected 'var' or 'terms' or end of input",
    ),
    (
        "terms many",
        ParseError, 1, 7, "an integer",
    ),
    (
        "terms 0",
        SemanticError, 1, 7, "at least 1",
    ),
    (
        "terms 1²",
        ParseError, 1, 7, "term count is not an integer",
    ),
    (
        "terms " + "9" * 5000,
        ParseError, 1, 7, "term count is not an integer",
    ),
    (
        "var x: attr a {\n    prefer r > g\n",
        ParseError, 3, 1, "end of input",
    ),
    (
        "var x: attr a { prefer r > g } @",
        ParseError, 1, 32, "unexpected character",
    ),
    (
        "var x: attr a {\n    when y = r: prefer r > g\n}",
        SemanticError, 2, 5, "remove the when clause",
    ),
    (
        "var x: attr a {\n    depends y\n    prefer r > g\n}\nvar y: attr b {\n    prefer u > v\n}",
        SemanticError, 3, 5, "needs a when clause",
    ),
    (
        "var y: attr b {\n    prefer u > v\n}\nvar x: attr a {\n    depends y\n    when z = u: prefer r > g\n}",
        SemanticError, 6, 10, "not a parent",
    ),
    (
        "var y: attr b {\n    prefer u > v\n}\nvar x: attr a {\n    depends y\n    when y = w: prefer r > g\n}",
        SemanticError, 6, 14, "not a value",
    ),
    (
        "var p: attr a {\n    prefer t > f\n}\nvar q: attr b {\n    prefer t > f\n}\nvar x: attr c {\n    depends p, q\n    when p = t: prefer r > g\n}",
        SemanticError, 9, 5, "missing ['q']",
    ),
    (
        "var p: attr a {\n    prefer t > f\n}\nvar x: attr c {\n    depends p\n    when p = t: prefer r > g\n    when p = t: prefer g > r\n}",
        SemanticError, 7, 5, "duplicate preference row",
    ),
    (
        "var x: attr a {\n    prefer r > g\n}\nvar x: attr b {\n    prefer u > v\n}",
        SemanticError, 4, 5, "duplicate variable",
    ),
    (
        "var x: attr a {\n    prefer r > g\n    prefer r > b\n}",
        SemanticError, 3, 5, "not a permutation",
    ),
    (
        "var y: attr b {\n    prefer u > v\n}\nvar x: attr a {\n    depends y, y\n    when y = u: prefer r > g\n}",
        SemanticError, 5, 16, "duplicate parent",
    ),
    (
        "var x: attr a {\n    depends x\n    when x = r: prefer r > g\n}",
        SemanticError, 2, 13, "depend on itself",
    ),
    (
        "var cost: attr price {\n    prefer low > mid\n}\nvar x: attr a {\n    depends cost\n    when cost = low, cost = mid: prefer r > g\n}",
        SemanticError, 6, 22, "constrained twice in one when clause",
    ),
    (
        "var x: a { prefer r > g }",
        ParseError, 1, 8, "expected 'attr'",
    ),
    (
        "var x: attr a {\n}",
        ParseError, 2, 1, "expected 'prefer'",
    ),
    (
        "var y: attr b {\n    prefer u > v\n}\nvar x: attr a {\n    depends y\n    when y u: prefer r > g\n}",
        ParseError, 6, 12, "expected '='",
    ),
    (
        "var y: attr b {\n    prefer u > v\n}\nvar x: attr a {\n    depends y,\n    when y = u: prefer r > g\n}",
        ParseError, 6, 5, "parent variable name",
    ),
]


@pytest.mark.parametrize("text", VALID_PROGRAMS)
def test_round_trip_fixpoint(text):
    spec = parse_query(text)
    printed = format_query(spec)
    assert parse_query(printed) == spec
    # printing is itself a fixpoint
    assert format_query(parse_query(printed)) == printed


def test_round_trip_on_random_nets():
    # the language fixes a domain's order by its first prefer row, so each
    # net takes its domains from its first cpt rows
    rng = random.Random(81)
    for _ in range(300):
        drawn = random_cpnet(rng, max_nodes=6, max_domain=4)
        nodes = tuple(
            PreferenceVariable(v.name, next(iter(drawn.cpt[v.name].values())))
            for v in drawn.nodes
        )
        net = CPNet(nodes=nodes, edges=drawn.edges, cpt=drawn.cpt)
        bindings = {v.name: f"attr_{rng.randint(0, 9)}" for v in nodes}
        spec = QuerySpec(net, bindings, rng.choice([None, rng.randint(1, 50)]))
        text = format_query(spec)
        assert parse_query(text) == spec
        assert format_query(parse_query(text)) == text


@pytest.mark.parametrize("case", INVALID_PROGRAMS)
def test_invalid_programs_report_positions(case):
    text, exc_type, line, column, fragment = case
    with pytest.raises(exc_type) as err:
        parse_query(text)
    assert err.value.line == line
    assert err.value.column == column
    assert fragment in str(err.value)
    assert f"{line}:{column}" in str(err.value)


def test_corpus_sizes():
    assert len(VALID_PROGRAMS) >= 20
    assert len(INVALID_PROGRAMS) >= 15


def test_minimal_program_structure():
    spec = parse_query("var color: attr c { prefer red > green }")
    net = spec.net
    assert len(net.nodes) == 1
    v = net.nodes[0]
    assert v.name == "color"
    assert spec.bindings == {"color": "c"}
    assert v.domain == ("red", "green")
    assert net.parent_names("color") == ()
    assert net.edges == ()
    assert net.cpt == {"color": {(): ("red", "green")}}
    assert spec.term_count is None


def test_when_conditions_normalize_to_depends_order():
    spec = parse_query(
        """
        var a: attr x { prefer a1 > a2 }
        var b: attr y { prefer b1 > b2 }
        var c: attr z {
            depends a, b
            when b = b1, a = a1: prefer c1 > c2
            when b = b2, a = a1: prefer c2 > c1
            when b = b1, a = a2: prefer c1 > c2
            when b = b2, a = a2: prefer c2 > c1
        }
        """
    )
    # cpt keys hold parent values in depends order: (a, b)
    assert spec.net.parent_names("c") == ("a", "b")
    assert spec.net.cpt["c"] == {
        ("a1", "b1"): ("c1", "c2"),
        ("a1", "b2"): ("c2", "c1"),
        ("a2", "b1"): ("c1", "c2"),
        ("a2", "b2"): ("c2", "c1"),
    }


def test_terms_clause_parsed():
    spec = parse_query("var v: attr a { prefer x > y }\nterms 2")
    assert spec.term_count == 2


def test_the_parser_reads_as_a_name_exactly_what_a_variable_accepts():
    # names around each of the first 2^11 code points and a few beyond:
    # a space that is no separator, a CJK letter, two digits that are not ASCII
    chars = [*map(chr, range(0x800)), "\u200b", "\u4ef7", "\uff10", "\U0001d7d8"]
    for name in (text for ch in chars for text in ("a" + ch, ch + "a")):
        try:
            read = parse_query(f"var {name}: attr c {{ prefer lo > hi }}").net.nodes[0].name
        except (ParseError, SemanticError):
            read = None
        try:
            accepted = PreferenceVariable(name, ("lo", "hi")).name
        except ConfigError:
            accepted = None
        assert (read == name) == (accepted == name), repr(name)


def _lexemes(text: str) -> list[str]:
    """The lexemes of a valid program: its words and punctuation, read
    with its comments and blanks left out."""
    return re.findall(r"\w+|\S", re.sub(r"#[^\n]*", "", text))


def _gap(rng: random.Random) -> str:
    """One or more blanks and comments; a comment ends its line."""
    pieces = [" ", "\t", "\r", "\n", "# var x: attr a { @½\n", "#\n"]
    return "".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))


@pytest.mark.parametrize("text", VALID_PROGRAMS)
def test_blanks_and_comments_between_lexemes_leave_the_spec_equal(text):
    rng = random.Random(text)
    spec = parse_query(text)
    for _ in range(20):
        spaced = "".join(_gap(rng) + lexeme for lexeme in _lexemes(text)) + _gap(rng)
        assert parse_query(spaced) == spec, repr(spaced)


@pytest.mark.parametrize("char", ["@", "½", "\x0b", "\xa0", "\ufeff"])
def test_a_character_that_starts_no_lexeme_is_reported_where_it_stands(char):
    rng = random.Random(char)
    for text in VALID_PROGRAMS:
        # offsets outside comments, and where the character is not the
        # tail of a word ('½' is a digit of no integer, but a word character)
        offsets = [
            offset for offset in range(len(text) + 1)
            if "#" not in text[:offset].rsplit("\n", 1)[-1]
            and not (offset and re.match(r"\w", text[offset - 1]) and re.match(r"\w", char))
        ]
        for offset in rng.sample(offsets, min(5, len(offsets))):
            lines = text[:offset].split("\n")
            with pytest.raises(ParseError) as err:
                parse_query(text[:offset] + char + text[offset:])
            assert (err.value.line, err.value.column) == (len(lines), len(lines[-1]) + 1)
            assert f"unexpected character {char!r}" in str(err.value)


# Where this scanner reads invalid text differently from the character loop
# it replaced: (program, line, column, message piece)
SCANNER_CHANGES = [
    # a word that starts with a digit is one lexeme, read as an integer
    ("terms 12ab", 1, 7, "term count is not an integer Python can read"),
    ("terms 1_000", 1, 7, "term count is not an integer Python can read"),
    ("var x: attr a { prefer 2c0 }", 1, 24, "expected a value name, found '2c0'"),
    ("terms 1½", 1, 7, "term count is not an integer Python can read"),
    # end of input after a final comment is placed at the end of the text
    ("var x: attr a {\n prefer r > g # no brace", 2, 25, "found end of input"),
]


@pytest.mark.parametrize("case", SCANNER_CHANGES)
def test_scanner_changes_to_errors_in_invalid_text(case):
    text, line, column, fragment = case
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert fragment in str(err.value)
