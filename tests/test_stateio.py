import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from ealgebra import (
    CertificateError,
    ContractViolation,
    Element,
    FunctionName,
    Location,
    OracleError,
    ParseError,
    PartialRun,
    ScriptedOracle,
    State,
    StateValidityError,
    StaticMirror,
    UNDEF,
    FALSE,
    TRUE,
    Update,
    UpdateSet,
    format_certificate,
    format_element,
    format_state,
    make_vocabulary,
    parse_certificate,
    parse_element,
    parse_guard_text,
    parse_program,
    parse_rule_text,
    parse_state,
    parse_term_text,
)
from ealgebra.stateio import text_lines


@pytest.fixture(scope="module")
def vocab():
    return make_vocabulary(
        [
            FunctionName("Fork", 1),
            FunctionName("Parent", 1),
            FunctionName("Edge", 2, is_relation=True),
            FunctionName("think", 0, is_static=True),
        ],
        with_reserve=True,
        integers=True,
    )


def test_element_literals(vocab):
    assert parse_element("p0") == Element.named("p0")
    assert parse_element("42") == Element.integer(42)
    assert parse_element("true") == TRUE
    assert parse_element("undef") == UNDEF
    assert parse_element("@3") == Element.reserve(3)
    with pytest.raises(ParseError):
        parse_element("@x")


@pytest.mark.parametrize("token", ["", "  "])
def test_an_empty_element_literal_is_refused(token):
    with pytest.raises(ParseError, match="^empty element literal$"):
        parse_element(token)


def test_facts_and_defaults(vocab):
    s = parse_state("Fork(p0) = down\nEdge(a, b) = true\n# comment\n", vocab)
    assert s.read(Location("Fork", (Element.named("p0"),))) == Element.named("down")
    assert s.read(Location("Edge", (Element.named("a"), Element.named("b")))) == TRUE
    assert s.read(Location("Edge", (Element.named("b"), Element.named("a")))) == FALSE
    assert s.read(Location("Parent", (Element.named("p0"),))) == UNDEF


def test_constants_are_seeded(vocab):
    s = parse_state("", vocab, constants=("think",))
    assert s.read(Location("think")) == Element.named("think")


def test_unknown_name_and_arity_errors(vocab):
    with pytest.raises(ParseError):
        parse_state("Nope(a) = b", vocab)
    with pytest.raises(ParseError):
        parse_state("Fork(a, b) = up", vocab)
    with pytest.raises(ParseError):
        parse_state("what is this", vocab)


def test_reserve_directive_and_mentions(vocab):
    s = parse_state("reserve: 4\nParent(@1) = root", vocab)
    assert s.reserve_next == 4
    assert s.audit_proviso() == []
    with pytest.raises(StateValidityError):
        parse_state("reserve: 1\nParent(@1) = root", vocab)


def test_format_parse_round_trip(vocab):
    text = "reserve: 2\nEdge(a, b) = true\nFork(p0) = down\nParent(@1) = root\n"
    s = parse_state(text, vocab)
    assert format_state(s) == text
    assert parse_state(format_state(s), vocab) == s


# -- one grammar: ASCII digits, one line per location, text only -------------

CERT_SPEC = """\
vocabulary:
  dynamic Fork/1, Mode/1
  static relation Kind/1
pragma integers
module Phil:
  Fork(Self) := 0
"""
CERT_TARGET = parse_program(CERT_SPEC)
MOD_PROGRAM = "vocabulary:\n  dynamic c/0\npragma integers mod {}\nprogram:\n  c := c + 1\n"


@pytest.mark.parametrize("digits", ["²", "٣", "1²", "٣4"])
def test_only_ascii_digits_are_integers(vocab, digits):
    for token in (digits, f"-{digits}", f"@{digits}"):
        with pytest.raises(ParseError, match=f"bad (element|reserve) literal: {token}$"):
            parse_element(token)
    with pytest.raises(ParseError, match=f"bad element literal: {digits}"):
        parse_state(f"Fork(a) = {digits}\n", vocab)
    with pytest.raises(ParseError, match="line 1, column 1: reserve: expects a nonnegative"):
        parse_state(f"reserve: {digits}\n", vocab)
    for text in (f"move m1 by {digits}\n", f"move m1 by 0\nupdates m1: Fork(0) := {digits}\n"):
        with pytest.raises(ParseError, match=f"bad element literal: {digits}"):
            parse_certificate(text, CERT_TARGET)
    with pytest.raises(ParseError, match=f"bad element literal: {digits}"):
        ScriptedOracle.parse(f"step 1: e(0) = {digits}\n", vocab)
    with pytest.raises(OracleError, match="oracle script line 1: bad entry"):
        ScriptedOracle.parse(f"step {digits}: e(0) = 1\n", vocab)
    with pytest.raises(ParseError, match=r"usage: pragma integers \[mod N\]"):
        parse_program(MOD_PROGRAM.format(digits))


def test_ascii_digits_still_read_as_integers(vocab):
    assert parse_element("-07") == Element.integer(-7)
    assert parse_element("@012") == Element.reserve(12)
    assert parse_program(MOD_PROGRAM.format("5")).vocabulary.modulus == 5
    oracle = ScriptedOracle.parse("step 10: e(3) = 4\n", vocab)
    assert oracle.answers == {(10, "e", (Element.integer(3),)): Element.integer(4)}


def test_a_second_line_for_one_location_is_refused(vocab):
    with pytest.raises(ParseError, match=r"^line 3, column 1: second line for Fork\(p0\)$"):
        parse_state("Fork(p0) = up\nFork(p1) = up\nFork(p0) = down\n", vocab)
    with pytest.raises(ParseError, match="line 2, column 1: second line for think"):
        parse_state("think = a\nthink = a\n", vocab, constants=("think",))
    with pytest.raises(CertificateError, match=r"sigma block: line 4, column 1: second line for Fork\(0\)"):
        parse_certificate("move m1 by 0\nsigma:\n  Fork(0) = 1\n  Fork(0) = 2\nendsigma\n", CERT_TARGET)
    # Under a modulus a line is named as written only when it was reduced.
    mod3 = make_vocabulary([FunctionName("F", 2)], integers=True, modulus=3)
    with pytest.raises(ParseError, match=r"^line 2, column 1: second line for F\(1, 2\)$"):
        parse_state("F(1, 2) = 0\nF( 1,2 ) = 1\n", mod3)
    with pytest.raises(ParseError, match=(
        r"^line 2, column 1: second line for F\(1, 2\) \(written F\(4, 2\) = 1, integers mod 3\)$"
    )):
        parse_state("F(1, 2) = 0\nF(4, 2) = 1  # four\n", mod3)
    with pytest.raises(ParseError, match=r"^line 3, column 1: second reserve: line$"):
        parse_state("reserve: 3\nFork(p0) = up\nreserve: 5\n", vocab)
    with pytest.raises(CertificateError, match="sigma block: line 4, column 1: second reserve: line"):
        parse_certificate("move m1 by 0\nsigma:\n  reserve: 1\n  reserve: 2\nendsigma\n", CERT_TARGET)
    with pytest.raises(OracleError, match=r"line 3: second answer to e\(0\) at step 1"):
        ScriptedOracle.parse("step 1: e(0) = 5\nstep 2: e(0) = 5\nstep 1: e(0) = 6\n", vocab)


def test_a_file_line_still_overrides_a_seeded_constant(vocab):
    s = parse_state("think = a\n", vocab, constants=("think",))
    assert s.read(Location("think")) == Element.named("a")


def test_text_lines_skip_comments_and_blanks_and_keep_line_numbers():
    text = "# head\n\n  a = b  # tail\n \t\n#\nc\n"
    assert list(text_lines(text)) == [(3, "a = b"), (6, "c")]


def test_every_reader_shares_the_line_rule(vocab):
    # A comment line and a blank line before each text, and a comment after
    # its first line: each reader reads the text as without them, and its
    # errors name the lines of the file.
    def decorated(text):
        first, _, rest = text.partition("\n")
        return f"# comment\n\n{first}  # comment\n{rest}"

    state = "Fork(p0) = up\nreserve: 2\n"
    assert parse_state(decorated(state), vocab) == parse_state(state, vocab)
    script = "step 1: e(0) = 5\nstep 2: e(0) = 6\n"
    assert (ScriptedOracle.parse(decorated(script), vocab).answers
            == ScriptedOracle.parse(script, vocab).answers)
    cert = "move m1 by 0\nsigma:\n  # inside\n\n  Fork(0) = 1\nendsigma # end\n"
    plain, again = (parse_certificate(t, CERT_TARGET) for t in (cert, decorated(cert)))
    assert plain.moves == again.moves and plain.states == again.states
    assert parse_program(decorated(CERT_SPEC)) == CERT_TARGET
    with pytest.raises(ParseError, match="^line 4, column 1: not a fact line"):
        parse_state(decorated("Fork(p0) = up\nnonsense\n"), vocab)
    with pytest.raises(OracleError, match="^oracle script line 4: bad entry"):
        ScriptedOracle.parse(decorated("step 1: e(0) = 5\nnonsense\n"), vocab)
    with pytest.raises(CertificateError, match="^sigma block: line 5, column 1: not a fact"):
        parse_certificate(decorated("move m1 by 0\nsigma:\n  nonsense\nendsigma\n"),
                          CERT_TARGET)
    with pytest.raises(CertificateError, match="^sigma block missing endsigma$"):
        parse_certificate(decorated("move m1 by 0\nsigma:\n  Fork(0) = 1\n"), CERT_TARGET)
    with pytest.raises(ParseError, match="^line 4, column 1: unexpected header line"):
        parse_program(decorated("vocabulary:\nnonsense\nprogram:\n  skip\n"))


def test_format_certificate_writes_the_recorded_sets_there_are():
    fork = Update(Location("Fork", (Element.integer(0),)), Element.integer(1))
    pr = PartialRun(("m1", "m2"), {"m1": Element.integer(0), "m2": Element.integer(1)},
                    frozenset(), {}, {"m2": UpdateSet([fork])})
    text = format_certificate(pr)
    assert "updates m1" not in text and "updates m2: Fork(0) := 1\n" in text
    assert parse_certificate(text, CERT_TARGET).recorded == pr.recorded


ENTRY_POINTS = {
    "parse_state": lambda text, vocab: parse_state(text, vocab),
    "parse_certificate": lambda text, vocab: parse_certificate(text, CERT_TARGET),
    "parse_element": lambda text, vocab: parse_element(text, vocab),
    "ScriptedOracle.parse": lambda text, vocab: ScriptedOracle.parse(text, vocab),
    "parse_program": lambda text, vocab: parse_program(text),
    "parse_guard_text": lambda text, vocab: parse_guard_text(text, vocab),
    "parse_rule_text": lambda text, vocab: parse_rule_text(text, vocab),
    "parse_term_text": lambda text, vocab: parse_term_text(text, vocab),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("text", [None, b"Fork(p0) = up\n"])
def test_readers_refuse_what_is_not_text(vocab, entry_point, text):
    message = f"^{re.escape(entry_point)} reads text, not {type(text).__name__}$"
    with pytest.raises(ContractViolation, match=message):
        ENTRY_POINTS[entry_point](text, vocab)


# -- round trips ----------------------------------------------------------------

RT_VOCAB = make_vocabulary(
    [FunctionName("f", 2), FunctionName("g", 0), FunctionName("R", 1, is_relation=True)],
    with_reserve=True,
    integers=True,
)
# Identifiers (``vocabulary.IDENTIFIER``) other than the logic literals.
names = st.builds(
    lambda head, tail, primes: head + tail + "'" * primes,
    st.sampled_from(string.ascii_letters + "_"),
    st.text(string.ascii_letters + string.digits + "_", max_size=6),
    st.integers(0, 2),
).filter(lambda n: n not in ("true", "false", "undef"))
elements = st.one_of(
    st.sampled_from([TRUE, FALSE, UNDEF]),
    names.map(Element.named),
    st.integers(-10**6, 10**6).map(Element.integer),
    st.integers(0, 40).map(Element.reserve),
)


@st.composite
def rt_states(draw):
    tables = {
        "f": draw(st.dictionaries(st.tuples(elements, elements), elements, max_size=6)),
        "g": draw(st.dictionaries(st.just(()), elements, max_size=1)),
        "R": draw(st.dictionaries(st.tuples(elements), st.sampled_from([TRUE, FALSE]), max_size=4)),
    }
    least = State(RT_VOCAB, tables).reserve_next
    return State(RT_VOCAB, tables, least + draw(st.integers(0, 3)))


@settings(max_examples=100, deadline=None)
@given(rt_states())
def test_parse_state_inverts_format_state(state):
    assert parse_state(format_state(state), RT_VOCAB) == state


@st.composite
def recorded_runs(draw):
    moves = tuple(f"m{i}" for i in range(draw(st.integers(1, 4))))
    update = st.builds(
        lambda mirror, fname, args, value: (StaticMirror if mirror else Update)(
            Location(fname, tuple(args)), value
        ),
        st.booleans(), names, st.lists(elements, max_size=3), elements,
    )
    return PartialRun(
        moves=moves,
        agent_of={m: draw(elements) for m in moves},
        edges=frozenset(),
        states={},
        recorded={m: UpdateSet(draw(st.lists(update, max_size=4))) for m in moves},
    )


@settings(max_examples=100, deadline=None)
@given(recorded_runs())
def test_parse_certificate_keeps_the_recorded_update_sets(pr):
    again = parse_certificate(format_certificate(pr), CERT_TARGET)
    assert again.recorded == pr.recorded and again.agent_of == pr.agent_of


@settings(max_examples=200, deadline=None)
@given(elements)
def test_parse_element_inverts_format_element(element):
    assert parse_element(format_element(element)) == element
