import contextlib
import copy
import dataclasses
import math
import re
import sys
import time

import pytest
from hypothesis import given, strategies as st

from qasm2cudaq import frontend as fe
from qasm2cudaq.emit import EMISSION_TARGETS, emit
from qasm2cudaq.errors import EmitError, IndexOutOfRange, LexError, NonFiniteConst, ParseError, UndefinedName, UnsupportedConstruct
from qasm2cudaq.suites import compile_source

from conftest import CORPUS, LONG_INT_PROBES, NESTING_PROBES, NON_FINITE_PROBES, PROBE_HEADER, UNICODE_DIGITS_PROBE
from golden_cases import GOLDEN_CASES
from unparser import unparse


def _tokens(source: str) -> list[tuple[str, str]]:
    """(kind, lexeme) of each token `tokenize` reads, without the EOF entry."""
    stream = fe.tokenize(source)
    return list(zip(stream.kinds, stream.lexemes))[: len(stream)]


class TestTokenize:
    def test_simple_gate_call(self):
        assert _tokens("h q[0];") == [
            (fe.IDENTIFIER, "h"),
            (fe.IDENTIFIER, "q"),
            (fe.PUNCTUATION, "["),
            (fe.INTEGER, "0"),
            (fe.PUNCTUATION, "]"),
            (fe.PUNCTUATION, ";"),
        ]

    def test_empty_source(self):
        stream = fe.tokenize("")
        assert len(stream) == 0
        assert (stream.kinds, stream.lexemes) == ([fe.EOF], [""])

    def test_pi_is_identifier_and_slash_operator(self):
        by_lexeme = {lexeme: kind for kind, lexeme in _tokens("rz(pi/2) q;")}
        assert by_lexeme["pi"] == fe.IDENTIFIER
        assert by_lexeme["/"] == fe.OPERATOR

    def test_no_empty_lexemes_and_comments_dropped(self):
        lexemes = [lexeme for _, lexeme in _tokens("// comment\nh q; /* block\ncomment */ x q;\n")]
        assert all(lexemes)
        assert lexemes == ["h", "q", ";", "x", "q", ";"]

    def test_lexemes_are_verbatim_substrings(self):
        source = 'OPENQASM 3.0;\nrz(1.5e-3) q[10];\ninclude "stdgates.inc";\n'
        stream, lines = fe.tokenize(source), source.splitlines()
        for i in range(len(stream)):
            line, col = stream.position(i)
            assert lines[line - 1][col - 1 : col - 1 + len(stream.lexemes[i])] == stream.lexemes[i]

    def test_line_col_point_at_first_char(self):
        stream = fe.tokenize("h q;\n  cx a, b;")
        assert stream.position(stream.lexemes.index("cx")) == (2, 3)

    def test_illegal_character(self):
        with pytest.raises(LexError) as exc:
            fe.tokenize("h q; $")
        assert (exc.value.line, exc.value.col) == (1, 6)

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            fe.tokenize("h q; /* never closed")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            fe.tokenize('include "stdgates.inc;\n')

    def test_float_forms(self):
        assert fe.tokenize("1.5 .5 2. 1e3 1.5e-3 3").kinds == [fe.FLOAT] * 5 + [fe.INTEGER, fe.EOF]


class TestParse:
    def test_smallest_program(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit q; h q;")
        assert ast.includes == []
        decl, call = ast.statements
        assert decl == fe.QubitDecl("q", 1, (0, 0))
        assert call == fe.GateCall([], "h", [], [fe.NamedRef("q", None, (0, 0))], (0, 0))

    def test_if_comparison(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit q; bit c; if (c == 1) { x q; }")
        stmt = ast.statements[-1]
        assert isinstance(stmt, fe.IfStatement)
        assert stmt.condition == fe.Comparison(
            "==", fe.NamedRef("c", None, (0, 0)), fe.IntLit(1, (0, 0)), (0, 0)
        )
        assert len(stmt.then_body) == 1 and stmt.else_body == []

    def test_modifiers_preserve_source_order(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit[2] q; ctrl @ inv @ s q[0], q[1];")
        call = ast.statements[-1]
        assert [m.kind for m in call.modifiers] == ["ctrl", "inv"]
        assert call.name == "s"
        assert len(call.qubits) == 2

    def test_input_scalar_and_array(self):
        ast = fe.parse_source(
            "OPENQASM 3.0; input float[64] alpha; input array[float[64], 2] theta;"
        )
        scalar, array = ast.statements
        assert (scalar.name, scalar.count, scalar.array) == ("alpha", 1, False)
        assert (array.name, array.count, array.array) == ("theta", 2, True)

    def test_input_float_width_2_rejected_with_hint(self):
        with pytest.raises(ParseError) as exc:
            fe.parse_source("OPENQASM 3.0; input float[2] theta;")
        assert "array[float[64], N]" in exc.value.expected

    def test_both_measure_forms_normalize(self):
        ast = fe.parse_source(
            "OPENQASM 3.0; qubit q; bit c; c = measure q; measure q -> c;"
        )
        first, second = ast.statements[2:]
        assert isinstance(first, fe.MeasureAssign)
        assert first == second

    def test_version_must_be_3_0(self):
        with pytest.raises(ParseError):
            fe.parse_source("OPENQASM 2.0; qubit q;")
        with pytest.raises(ParseError):
            fe.parse_source("qubit q;")

    def test_unsupported_construct_named(self):
        with pytest.raises(UnsupportedConstruct) as exc:
            fe.parse_source("OPENQASM 3.0; qubit q; while (1) { h q; }")
        assert exc.value.construct == "while"
        assert (exc.value.line, exc.value.col) == (1, 24)
        assert str(exc.value) == "parse error at 1:24: construct not supported: while"

    @pytest.mark.parametrize(
        "statement, exc_type, detail",
        [
            # words of the subset, out of place: a plain parse error
            ("else { h q; }", ParseError, "3:1: expected a statement, found 'else'"),
            ("in q;", ParseError, "3:1: expected a statement, found 'in'"),
            ("OPENQASM 3.0;", ParseError, "3:1: expected a statement, found 'OPENQASM'"),
            # classical declarations the subset leaves out
            ("float f;", UnsupportedConstruct, "3:1: construct not supported: float"),
            ("int i;", UnsupportedConstruct, "3:1: construct not supported: int"),
            ("array[float[64], 2] a;", UnsupportedConstruct, "3:1: construct not supported: array"),
            # an include past the header's, at top level or in a block, and an
            # unclosed gate body
            ('include "stdgates.inc";', UnsupportedConstruct, "3:1: construct not supported: include after other statements"),
            ('if (q) { include "stdgates.inc"; }', UnsupportedConstruct, "3:10: construct not supported: include after other statements"),
            ('for int i in [0:1] { include "stdgates.inc"; }', UnsupportedConstruct, "3:22: construct not supported: include after other statements"),
            ("gate g a { h a;", ParseError, "3:16: expected '}' closing gate body, found 'end of input'"),
            # an identifier then `[` starts a measure assignment, so a stray
            # token after its target is the one reported
            ("c[0] x = measure q;", ParseError, "3:6: expected '=', found 'x'"),
            ("h[0] q;", ParseError, "3:6: expected '=', found 'q'"),
        ],
        ids=[
            "else", "in", "second-header", "float", "int", "array", "late-include", "include-in-if",
            "include-in-for", "open-gate-body", "stray-before-equals", "indexed-gate-name",
        ],
    )
    def test_statement_start_errors(self, statement, exc_type, detail):
        with pytest.raises(exc_type) as exc:
            fe.parse_source("OPENQASM 3.0;\nqubit q;\n" + statement)
        assert type(exc.value) is exc_type
        assert str(exc.value) == f"parse error at {detail}"

    def test_nested_index_target_is_a_measure_assignment(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit[2] q; bit[2] c; c[q[0]] = measure q[1];")
        stmt = ast.statements[-1]
        assert type(stmt) is fe.MeasureAssign
        assert stmt.target == fe.NamedRef("c", fe.NamedRef("q", fe.IntLit(0, 0), 0), 0)
        assert stmt.source == fe.NamedRef("q", fe.IntLit(1, 0), 0)

    def test_unknown_include_rejected(self):
        with pytest.raises(UnsupportedConstruct) as exc:
            fe.parse_source('OPENQASM 3.0; include "qelib1.inc";')
        assert "qelib1.inc" in exc.value.construct
        assert "expected" not in str(exc.value)

    def test_non_measure_assignment_rejected(self):
        with pytest.raises(ParseError):
            fe.parse_source("OPENQASM 3.0; bit c; c = 1;")

    def test_gate_body_rejects_measure(self):
        with pytest.raises(ParseError):
            fe.parse_source("OPENQASM 3.0; qubit q; bit c; gate g a { measure a -> c; }")

    def test_error_location_on_offending_token(self):
        source = "OPENQASM 3.0;\nqubit q;\nh q\nx q;"
        with pytest.raises(ParseError) as exc:
            fe.parse_source(source)
        # missing semicolon: the parser trips on 'x' at line 4
        assert (exc.value.line, exc.value.col) == (4, 1)

    def test_for_with_step(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit[5] q; for int i in [0:2:4] { h q[i]; }")
        loop = ast.statements[-1]
        assert isinstance(loop, fe.ForStatement)
        assert loop.step is not None

    def test_scientific_angle_full_precision(self):
        ast = fe.parse_source("OPENQASM 3.0; qubit q; rz(1.5707963267948966) q;")
        angle = ast.statements[-1].args[0]
        assert angle.value == math.pi / 2


class TestRoundTrip:
    @pytest.mark.parametrize("source", CORPUS)
    def test_corpus_roundtrip(self, source):
        ast = fe.parse_source(source)
        again = fe.parse_source(unparse(ast))
        assert ast.includes == again.includes
        assert ast.statements == again.statements

    @pytest.mark.parametrize("source", CORPUS)
    def test_unparse_is_stable(self, source):
        once = unparse(fe.parse_source(source))
        twice = unparse(fe.parse_source(once))
        assert once == twice


@st.composite
def mutated_program(draw):
    source = draw(st.sampled_from(CORPUS))
    action = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
    pos = draw(st.integers(min_value=0, max_value=max(len(source) - 1, 0)))
    junk = draw(st.sampled_from(list("{}[]();,@=<>!*/happy0123 \n\"")))
    if action == "delete":
        return source[:pos] + source[pos + 1 :]
    if action == "insert":
        return source[:pos] + junk + source[pos:]
    if action == "replace":
        return source[:pos] + junk + source[pos + 1 :]
    return source[:pos]


class TestGrammarClosure:
    @given(mutated_program())
    def test_mutations_parse_or_raise_cleanly(self, source):
        try:
            fe.parse_source(source)
        except (LexError, ParseError) as err:
            lines = source.splitlines() or [""]
            assert 1 <= err.line <= len(lines) + 1
            assert err.col >= 1

    @given(st.text(alphabet="qhbit []{};=measure()->@01x,\n", max_size=80))
    def test_random_soup_never_crashes(self, source):
        try:
            fe.parse_source(source)
        except (LexError, ParseError):
            pass


def _line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based position of `offset`; only \\n ends a line, \\r is a column."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


_FIXED_LEXEMES = [
    (fe.OPERATOR, op) for op in ("->", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "=", "@")
] + [(fe.PUNCTUATION, p) for p in "()[]{};,:"] + [(fe.KEYWORD, k) for k in sorted(fe.KEYWORDS)]

_token = st.one_of(
    st.sampled_from(_FIXED_LEXEMES),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
    .filter(lambda s: s not in fe.KEYWORDS)
    .map(lambda s: (fe.IDENTIFIER, s)),
    st.from_regex(r"[0-9]{1,6}", fullmatch=True).map(lambda s: (fe.INTEGER, s)),
    st.from_regex(
        r"(?:[0-9]{1,3}\.[0-9]{0,3}|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,3})?|[0-9]{1,3}[eE][+-]?[0-9]{1,3}",
        fullmatch=True,
    ).map(lambda s: (fe.FLOAT, s)),
    st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=8).map(
        lambda s: (fe.STRING, f'"{s}"')
    ),
)
_ws = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "\r"]), min_size=1, max_size=3).map("".join)
_comment = st.one_of(
    st.just(""),
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=10).map(
        lambda s: f"//{s}\n"
    ),
    st.text(st.sampled_from(list("ab */\n\r\"")), max_size=12)
    .filter(lambda s: "*/" not in s)
    .map(lambda s: f"/*{s}*/"),
)
# leading whitespace keeps a separator from joining the token before it
# (`/` then `/*`, `-` then `>`, `1` then `.5`)
_separator = st.tuples(_ws, _comment, st.one_of(st.just(""), _ws)).map("".join)


@st.composite
def token_source(draw):
    """(source, [(kind, lexeme, offset)]) from random tokens and separators."""
    source, expected = draw(st.one_of(st.just(""), _separator)), []
    for kind, lexeme in draw(st.lists(_token, max_size=25)):
        expected.append((kind, lexeme, len(source)))
        source += lexeme + draw(_separator)
    return source, expected


class TestScanner:
    @given(token_source())
    def test_kinds_and_positions(self, case):
        source, expected = case
        stream = fe.tokenize(source)
        assert _tokens(source) == [(k, lx) for k, lx, _ in expected]
        for i, (_, lexeme, offset) in enumerate(expected):
            line, col = stream.position(i)
            assert (line, col) == _line_col(source, offset)
            assert source.split("\n")[line - 1][col - 1 : col - 1 + len(lexeme)] == lexeme

    @given(token_source(), st.sampled_from(["illegal", "block", "string"]), st.data())
    def test_injected_error_at_exact_position(self, case, error, data):
        source, expected = case
        offsets = [offset for _, _, offset in expected] + [len(source)]
        at = data.draw(st.sampled_from(offsets))
        head, rest = source[:at], source[at:]
        if error == "illegal":
            bad = data.draw(st.sampled_from(list("$?#'`~%&|^\\")))
            message = f"illegal character {bad!r}"
        elif error == "block":
            bad, rest = "/*", rest.replace("*/", "* /")
            message = "unterminated block comment"
        else:
            line_rest, newline, tail = rest.partition("\n")
            bad, rest = '"', line_rest.replace('"', "") + newline + tail
            message = "unterminated string literal"
        broken = head + bad + rest
        with pytest.raises(LexError) as exc:
            fe.tokenize(broken)
        assert (exc.value.line, exc.value.col) == _line_col(broken, at)
        assert exc.value.message == message


def _timed_raise(exc_type, source):
    # this thread's CPU time: another busy process on the host can stall the
    # wall clock past the bound, and process time also counts BLAS worker
    # threads that keep spinning after an earlier test's matrix product
    start = time.thread_time()
    with pytest.raises(exc_type) as exc:
        compile_source(source)
    assert time.thread_time() - start < 0.1
    return exc.value


class TestResourceProbes:
    @pytest.mark.parametrize("name", sorted(NESTING_PROBES))
    def test_nesting_probe_is_a_parse_error(self, name):
        source, position = NESTING_PROBES[name]
        err = _timed_raise(ParseError, source)
        assert (err.line, err.col) == position
        assert f"at most {fe.MAX_NESTING} levels of nesting" in err.expected

    @pytest.mark.parametrize("name", sorted(LONG_INT_PROBES))
    def test_long_integer_literal_is_a_parse_error(self, name):
        source, position = LONG_INT_PROBES[name]
        err = _timed_raise(ParseError, source)
        assert (err.line, err.col) == position
        assert err.expected == f"an integer literal of at most {fe.MAX_INT_DIGITS} digits"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int_max_str_digits setting")
    def test_integer_literal_limit_holds_at_the_lowest_digit_setting(self):
        # 640 is the lowest limit the setting takes; the parser reads up to
        # MAX_INT_DIGITS digits under it and refuses one more as a ParseError
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            digits = "9" * fe.MAX_INT_DIGITS
            ast = fe.parse_source(f"{PROBE_HEADER}const int k = {digits};\n")
            assert ast.statements[-1].expr.value == int(digits)
            with pytest.raises(ParseError) as exc:
                fe.parse_source(f"{PROBE_HEADER}const int k = {digits}9;\n")
            assert (exc.value.line, exc.value.col) == (5, 15)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("name", sorted(NON_FINITE_PROBES))
    def test_non_finite_constant_is_a_sema_error(self, name):
        source, span = NON_FINITE_PROBES[name]
        err = _timed_raise(NonFiniteConst, source)
        assert err.span == span

    @pytest.mark.parametrize(
        "body",
        [
            "rz(" + "(" * fe.MAX_NESTING + "1" + ")" * fe.MAX_NESTING + ") q;",
            "rz(" + "-" * fe.MAX_NESTING + "1) q;",
            "rz(" + "+".join(["0.001"] * fe.MAX_NESTING) + ") q;",
            "c = measure q;" + "if (c) { " * fe.MAX_NESTING + "x q;" + " }" * fe.MAX_NESTING,
            "for int i in [0:0] { " * fe.MAX_NESTING + "x q;" + " }" * fe.MAX_NESTING,
        ],
        ids=["parentheses", "unary-minus", "angle-sum", "if-blocks", "for-blocks"],
    )
    def test_nesting_at_the_limit_compiles_and_emits(self, body):
        source = PROBE_HEADER + body + "\n"
        assert unparse(fe.parse_source(source))
        kernel = compile_source(source)
        for target in EMISSION_TARGETS:
            assert emit(kernel, target).text


class TestAsciiDigits:
    def test_other_scripts_digits_are_illegal(self):
        source, (line, col) = UNICODE_DIGITS_PROBE
        with pytest.raises(LexError) as exc:
            fe.tokenize(source)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert "illegal character" in str(exc.value)

    def test_ascii_literals_unchanged(self):
        assert _tokens("0 7 12.5 .5 1e3 2E-2 3.e+1 0123") == [
            (fe.INTEGER, "0"), (fe.INTEGER, "7"), (fe.FLOAT, "12.5"), (fe.FLOAT, ".5"),
            (fe.FLOAT, "1e3"), (fe.FLOAT, "2E-2"), (fe.FLOAT, "3.e+1"), (fe.INTEGER, "0123"),
        ]


# The finditer scanner that `frontend.tokenize` replaced, kept as the
# reference the columnar tokenizer must agree with: one walk over tokens,
# whitespace and comments, tracking line and column as it goes; an illegal
# character is a gap between matches.
_REFERENCE_SCANNER = re.compile(
    r"""
      (?P<IDENT>    [A-Za-z_][A-Za-z0-9_]*)
    | (?P<WS>       [ \t\r\n]+)
    | (?P<PUNCT>    [()\[\]{};,:])
    | (?P<FLOAT>    (?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)? | [0-9]+[eE][+-]?[0-9]+)
    | (?P<INT>      [0-9]+)
    | (?P<LC>       //[^\n]*)
    | (?P<BC>       /\*.*?\*/)
    | (?P<BADBC>    /\*)
    | (?P<OP>       ->|==|!=|<=|>=|[<>+\-*/=@])
    | (?P<STRING>   "[^"\n]*")
    | (?P<BADSTR>   ")
    """,
    re.VERBOSE | re.DOTALL,
)
_REFERENCE_KINDS = {"FLOAT": fe.FLOAT, "INT": fe.INTEGER, "STRING": fe.STRING, "OP": fe.OPERATOR, "PUNCT": fe.PUNCTUATION}
_REFERENCE_ERRORS = {"BADBC": "unterminated block comment", "BADSTR": "unterminated string literal"}


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, lexeme, line, col) per token, then the EOF entry the parser
    reads: just past the last token, or 1:1 with none."""
    tokens = []
    line, line_start, pos = 1, 0, 0
    for m in _REFERENCE_SCANNER.finditer(source):
        start = m.start()
        if start != pos:
            break
        group, lexeme, pos = m.lastgroup, m.group(), m.end()
        if group == "IDENT":
            tokens.append((fe.KEYWORD if lexeme in fe.KEYWORDS else fe.IDENTIFIER, lexeme, line, start - line_start + 1))
        elif group == "WS" or group == "BC":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = start + lexeme.rfind("\n") + 1
        elif group in _REFERENCE_ERRORS:
            raise LexError(line, start - line_start + 1, _REFERENCE_ERRORS[group])
        elif group != "LC":
            tokens.append((_REFERENCE_KINDS[group], lexeme, line, start - line_start + 1))
    if pos != len(source):
        raise LexError(line, pos - line_start + 1, f"illegal character {source[pos]!r}")
    _, lexeme, line, col = tokens[-1] if tokens else (None, "", 1, 1)
    return tokens + [(fe.EOF, "", line, col + len(lexeme))]


def _outcome(tokenize, source: str):
    """The token columns with their EOF entry, or a LexError's fields."""
    try:
        return tokenize(source)
    except LexError as err:
        return (err.line, err.col, err.message)


def _columns(source: str) -> list[tuple[str, str, int, int]]:
    stream = fe.tokenize(source)
    assert len(stream) == len(stream.kinds) - 1
    return [(kind, lexeme, *stream.position(i)) for i, (kind, lexeme) in enumerate(zip(stream.kinds, stream.lexemes))]


# Legal fragments joined with no separator between them, so neighbours merge
# (`1` then `.5`, `-` then `>`, `/` then `*`), with up to two faults spliced
# in; a fault ends the scan, so most of the source stays legal.
_LEGAL_FRAGMENTS = (
    sorted(fe.KEYWORDS)
    + sorted(fe.UNSUPPORTED_CONSTRUCTS)[:4]
    + ["q", "pi", "_x9", "rz", "Q_1"]
    + ["0", "7", "0123", "1.", ".5", "12.5", "1e3", "2E-2", "3.e+1", "1.5e-3", ".5E+7", "1e", "1.e", "9e+"]
    + ["->", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "=", "@"]
    + list("()[]{};,:")
    + ['"stdgates.inc"', '"a b\t"', '""', '"\ud800 é"', '"/* //"']
    + ["// line\n", "// \ud800 é\n", "/* one */", "/* two\r\nlines */", "/**/", "/* \ud800\n*/", '/* " */']
    + [" ", "\t", "\n", "\r\n", "\r", "  \n\t"]
)
_FAULTS = ['"', '"\n"', "/*", "/*/", "/* never", "$", "#", "!", ".", "..5", "\\", "\ud800", "\x00", "é", "λx", "x٣", "١.٥"]


@st.composite
def _fragment_soup(draw):
    fragments = draw(st.lists(st.sampled_from(_LEGAL_FRAGMENTS), max_size=40))
    for fault in draw(st.lists(st.one_of(st.sampled_from(_FAULTS), st.text(min_size=1, max_size=2)), max_size=2)):
        fragments.insert(draw(st.integers(0, len(fragments))), fault)
    return "".join(fragments)


def _reference_corpora() -> dict[str, list[str]]:
    from conftest import EXPANSION_PROBES
    from golden_cases import emission_digest_corpus, error_corpus, histogram_corpus, kir_dump_corpus

    return {
        "golden": [
            *GOLDEN_CASES.values(),
            *histogram_corpus().values(),
            *emission_digest_corpus().values(),
            *kir_dump_corpus().values(),
        ],
        "conftest": [
            *CORPUS,
            *(source for source, _ in NESTING_PROBES.values()),
            *(source for source, _ in NON_FINITE_PROBES.values()),
            UNICODE_DIGITS_PROBE[0],
            *EXPANSION_PROBES.values(),
        ],
        "error_texts": list(error_corpus().values()),
    }


class TestReferenceScanner:
    """The columnar tokenizer against the finditer scanner it replaced."""

    @given(_fragment_soup())
    def test_generated_sources_agree(self, source):
        assert _outcome(_columns, source) == _outcome(reference_tokenize, source)

    @given(token_source(), st.sampled_from(_FAULTS), st.data())
    def test_a_fault_spliced_into_tokens_agrees(self, case, fault, data):
        source, _ = case
        at = data.draw(st.integers(0, len(source)))
        source = source[:at] + fault + source[at:]
        assert _outcome(_columns, source) == _outcome(reference_tokenize, source)

    @pytest.mark.parametrize("fault", _FAULTS)
    def test_each_fault_first_inside_and_last_agrees(self, fault):
        legal = "h q;\r\n\trz(1.5e-3) q[0]; /* c\n */ x q;"
        for source in (fault + legal, legal[:9] + fault + legal[9:], legal + fault, legal + "\n" + fault):
            assert _outcome(_columns, source) == _outcome(reference_tokenize, source)

    @pytest.mark.parametrize("corpus", ["golden", "conftest", "error_texts"])
    def test_recorded_corpora_agree(self, corpus):
        sources = _reference_corpora()[corpus]
        assert sources
        for source in sources:
            assert _outcome(_columns, source) == _outcome(reference_tokenize, source), source[:200]

    def test_kinds_past_the_memo_cap(self):
        words = [f"w{i} {i} {i}.5" for i in range(fe._MEMO_CAP + 100)]
        source = " ".join(words) + " gate if 7 w0 -> /* c */ \"s\" // end"
        assert _columns(source) == reference_tokenize(source)

    def test_parse_reads_the_stream_without_changing_it(self):
        for source in GOLDEN_CASES.values():
            stream = fe.tokenize(source)
            before = copy.deepcopy(stream)
            first = fe.parse(stream)
            assert stream == before
            assert fe.parse(stream) == first


# Float lexemes as the tokenizer reads them; a three-digit exponent can
# overflow to inf.
_FLOAT_LEXEMES = st.from_regex(
    r"[0-9]{1,3}\.[0-9]{0,3}|\.[0-9]{1,3}|[0-9]{1,3}(\.[0-9]{0,3})?[eE][+-]?[0-9]{1,3}", fullmatch=True
)


def _tree(node, tokens: fe.TokenStream):
    """An AST node as nested tuples of its type and every field, spans
    included as the (line, col) they locate (AST equality skips spans)."""
    if dataclasses.is_dataclass(node):
        fields = dataclasses.fields(node)
        return (type(node).__name__, *(
            tokens.position(node.span) if f.name == "span" else _tree(getattr(node, f.name), tokens) for f in fields
        ))
    if isinstance(node, list):
        return [_tree(item, tokens) for item in node]
    return repr(node)


def _innermost_call(source: str):
    """The ParseError text of `source`, else the tree of the gate call at
    the bottom of its last statement's nested loops."""
    try:
        ast = fe.parse_source(source)
    except ParseError as err:
        return str(err)
    stmt = ast.statements[-1]
    while isinstance(stmt, fe.ForStatement):
        stmt = stmt.body[0]
    return _tree(stmt, ast.tokens)


@st.composite
def literal_operands(draw):
    """A call `g(±x, ...) q[i], ...;` whose literal operands the parser builds
    directly, and the same call with each operand in parentheses, which
    sends it through parse_expr. Spaces stand where the parentheses go, so
    every position agrees."""
    args = draw(st.lists(st.tuples(st.sampled_from(["", "-"]), _FLOAT_LEXEMES), min_size=1, max_size=3))
    indices = draw(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=3))

    def call(left: str, right: str) -> str:
        angles = ",".join(f"{left}{sign}{lexeme}{right}" for sign, lexeme in args)
        return f"g({angles}) " + ", ".join(f"q[{left}{i}{right}]" for i in indices) + ";"

    return call(" ", " "), call("(", ")")


class TestLiteralOperands:
    @given(literal_operands())
    def test_literal_operands_parse_as_through_parse_expr(self, pair):
        for wrap in ("{}", "gate f a {{ {} }}"):  # at top level and in a gate body
            fast, general = (f"OPENQASM 3.0;\n{wrap.format(call)}\n" for call in pair)
            assert _innermost_call(fast) == _innermost_call(general)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    @pytest.mark.parametrize("args", ["{}", "0.5, {}", "{}, -0.5"])
    def test_non_finite_literal_operand_error(self, literal, args):
        fast, general = (f"OPENQASM 3.0;\ng({args.format(left + literal + right)}) q[0];\n" for left, right in ("  ", "()"))
        assert "expected a finite float literal" in _innermost_call(fast)
        assert _innermost_call(fast) == _innermost_call(general)

    @given(literal_operands(), st.sampled_from([fe.MAX_NESTING - 1, fe.MAX_NESTING]))
    def test_literal_operands_at_the_nesting_limit(self, pair, depth):
        # a parenthesis is one level of nesting, so the general call sits in
        # one loop fewer; spaces stand for that loop's header
        block = "for int v in [0:0] { "
        fast = "OPENQASM 3.0;\n" + block * depth + pair[0] + " }" * depth + "\n"
        general = "OPENQASM 3.0;\n" + " " * len(block) + block * (depth - 1) + pair[1] + " }" * (depth - 1) + "\n"
        assert _innermost_call(fast) == _innermost_call(general)


class TestPositionsOnDemand:
    """A valid program never works out a position: only an error text reads
    one, through `TokenStream.position`."""

    @pytest.mark.parametrize("corpus", ["golden", "conftest"])
    def test_valid_programs_never_locate_a_token(self, monkeypatch, corpus):
        from qasm2cudaq import kir

        sources = _reference_corpora()["golden"] if corpus == "golden" else CORPUS
        assert sources

        def no_positions(source, lexemes):
            raise AssertionError("a valid program located its tokens")

        monkeypatch.setattr(fe, "_starts", no_positions)
        for source in sources:
            kernel = compile_source(source)
            assert kir.dump(kernel)
            for target in EMISSION_TARGETS:
                with contextlib.suppress(EmitError):  # a target's own limit, with no position
                    emit(kernel, target)
        # the patch is where an error reads its position
        with pytest.raises(AssertionError, match="located its tokens"):
            compile_source("OPENQASM 3.0;\nqubit q\n")


def _has_indexed_target(source: str) -> bool:
    """Whether `source` has an indexed measure-assignment target: a `]`
    then `=`, which nothing else in the grammar reads."""
    lexemes = fe.tokenize(source).lexemes
    return ("]", "=") in zip(lexemes, lexemes[1:])


_FAULT_SOURCES = [*CORPUS, *GOLDEN_CASES.values()]
_TARGET_SOURCES = [source for source in _FAULT_SOURCES if _has_indexed_target(source)]


@st.composite
def injected_fault(draw):
    """(source, (line, col), error type, found): a program of the conformance
    or golden corpus with one fault injected after a random token, where its
    error must point, counted over the source without the package, and the
    token a ParseError finds there. A stray `OPENQASM` goes after a `;`, `{`
    or `}` past the header: the parser meets it where a statement may start.
    A stray identifier goes between an indexed measure-assignment target and
    its `=`, in a program that has one. `reset` of an undefined name or of an
    index out of range goes after a top-level `;`, not before an include."""
    fault = draw(st.sampled_from(["stray", "stray-target", "undefined", "out-of-range"]))
    source = draw(st.sampled_from(_TARGET_SOURCES if fault == "stray-target" else _FAULT_SOURCES))
    tokens = reference_tokenize(source)[:-1]
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    ends = [line_starts[line - 1] + col - 1 + len(lexeme) for _, lexeme, line, col in tokens]
    depth, statement_ends, top_level_ends, target_ends = 0, [], [], []
    for k, (_, lexeme, _, _) in enumerate(tokens):
        depth += {"{": 1, "}": -1}.get(lexeme, 0)
        following = tokens[k + 1][1] if k + 1 < len(tokens) else ""
        if k >= 2 and lexeme in (";", "{", "}"):
            statement_ends.append(ends[k])
            if lexeme == ";" and depth == 0 and following != "include":
                top_level_ends.append(ends[k])
        if lexeme == "]" and following == "=":
            target_ends.append(ends[k])
    found = None
    if fault == "stray":
        at = draw(st.sampled_from(statement_ends))
        text, offset, error, found = " OPENQASM ", 1, ParseError, "OPENQASM"
    elif fault == "stray-target":
        at = draw(st.sampled_from(target_ends))
        text, offset, error, found = " stray ", 1, ParseError, "stray"
    elif fault == "undefined":
        at = draw(st.sampled_from(top_level_ends))
        text, offset, error = " reset nowhere; ", len(" reset "), UndefinedName
    else:
        at = draw(st.sampled_from(top_level_ends))
        text = " qubit[2] fault_q; reset fault_q[7]; "
        offset, error = text.index("fault_q[7]"), IndexOutOfRange
    broken = source[:at] + text + source[at:]
    return broken, _line_col(broken, at + offset), error, found


class TestErrorPositions:
    @pytest.mark.parametrize(
        "source, position",
        [
            ("OPENQASM 3.0;\nqubit q;\nh q // no semicolon", (3, 4)),
            ("OPENQASM 3.0;\nqubit q;\nh q /* a block\ncomment */", (3, 4)),
            ("OPENQASM 3.0;\nqubit q;\nh q /* a block\ncomment */\n\n", (3, 4)),
            ("OPENQASM 3.0;\nqubit q;\n  h   q  ", (3, 8)),
            ("// no tokens\n/* at all\n */", (1, 1)),
        ],
        ids=["line-comment", "block-comment", "block-comment-newlines", "spaces", "no-tokens"],
    )
    def test_end_of_input_is_just_past_the_last_token(self, source, position):
        with pytest.raises(ParseError) as exc:
            fe.parse_source(source)
        assert exc.value.found == "end of input"
        assert (exc.value.line, exc.value.col) == position
        assert str(exc.value).startswith("parse error at %d:%d: " % position)

    @given(injected_fault())
    def test_injected_fault_is_located(self, case):
        source, (line, col), error, found = case
        with pytest.raises(error) as exc:
            compile_source(source)
        err = exc.value
        assert str(err).split(": ")[0].endswith(f" at {line}:{col}")
        if error is ParseError:
            assert (err.line, err.col, err.found) == (line, col, found)
        else:
            assert err.span == (line, col)
