"""OpenQASM 3.0 frontend: a tokenizer into parallel columns, the typed AST,
and a recursive-descent parser; it holds only what tokenize, parse and sema
read.

The accepted grammar is a frozen subset of OpenQASM 3.0: register
declarations, `input` parameters, `const` declarations, gate definitions,
gate calls with ctrl/negctrl/inv/pow modifiers, measurement (arrow and
assignment forms), reset, barrier, if/else over classical bits, and bounded
`for` loops. Anything else is a ParseError naming the construct.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import accumulate, compress

from ._gc import gc_paused
from .errors import LexError, ParseError, UnsupportedConstruct

# Token kinds
KEYWORD = "keyword"
IDENTIFIER = "identifier"
INTEGER = "integer-literal"
FLOAT = "float-literal"
STRING = "string-literal"
OPERATOR = "operator"
PUNCTUATION = "punctuation"
EOF = "eof"

KEYWORDS = frozenset(
    """OPENQASM include qubit bit input const float int array gate
    measure reset barrier if else for in ctrl negctrl inv pow""".split()
)

# Recognized OpenQASM 3.0 words outside the supported subset; statements that
# start with one get a targeted UnsupportedConstruct error.
UNSUPPORTED_CONSTRUCTS = frozenset(
    """while def defcal defcalgrammar cal box delay duration durationof
    stretch angle bool uint complex switch case default break continue
    return extern let output pragma qreg creg""".split()
)

# One pattern for every token and comment, for `re.split`: its parts alternate
# separator and token, and a legal source has only whitespace in separators.
# `//` and `/*` come before the `/` operator; `/\*.*` takes an unterminated
# block comment with the rest of the source, so it is scanned once. Digits
# are ASCII `[0-9]`, as in OpenQASM: `\d` would match other scripts' digits.
_TOKEN = re.compile(
    r"""(
      [A-Za-z_][A-Za-z0-9_]*
    | [()\[\]{};,:]
    | (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
    | //[^\n]* | /\*.*?\*/ | /\*.*
    | ->|==|!=|<=|>=|[<>+\-*/=@]
    | "[^"\n]*"
    )""",
    re.VERBOSE | re.DOTALL,
)
_DROP_WHITESPACE = str.maketrans("", "", " \t\r\n")
_COMMENT = "comment"  # a kind that never leaves `tokenize`
_FIXED_KINDS = {
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys("()[]{};,:", PUNCTUATION),
    **dict.fromkeys("-> == != <= >= < > + - * / = @".split(), OPERATOR),
}
_FIRST_KINDS = {**dict.fromkeys("0123456789.", INTEGER), '"': STRING, "/": _COMMENT}  # else IDENTIFIER
_MEMO_CAP = 4096  # distinct lexemes one `tokenize` call remembers the kind of
_LEX_ERRORS = {"/": "unterminated block comment", '"': "unterminated string literal"}


@dataclass(slots=True)
class TokenStream:
    """Tokens as parallel columns, `kinds` and `lexemes`, plus an EOF entry
    just past the last token that `len` does not count, and the source they
    were read from. Token i is `kinds[i]`, `lexemes[i]` and `position(i)`; a
    position is worked out only when asked for."""

    kinds: list[str]
    lexemes: list[str]
    source: str
    _starts: list[int] | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.kinds) - 1

    def position(self, i: int) -> tuple[int, int]:
        """(line, col) of token `i` or of EOF; the first call finds every start."""
        if self._starts is None:
            self._starts = _starts(self.source, self.lexemes)
        return _line_col(self.source, self._starts[i])


def _kinds(lexemes: list[str]) -> list[str]:
    """Each lexeme's kind, from `_FIXED_KINDS` or its first character. Up to
    `_MEMO_CAP` other kinds are remembered, but not floats: they rarely repeat."""
    memo = dict(_FIXED_KINDS)

    def classify(lexeme: str) -> str:
        kind = _FIRST_KINDS.get(lexeme[0], IDENTIFIER)
        if kind is INTEGER and not lexeme.isdigit():
            return FLOAT
        if len(memo) < _MEMO_CAP:
            memo[lexeme] = kind
        return kind

    get = memo.get
    return [get(lexeme) or classify(lexeme) for lexeme in lexemes]


def _line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based position of `offset` in code points; only `\\n` ends a line."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _lex_error(source: str, offset: int) -> LexError:
    message = _LEX_ERRORS.get(source[offset]) or f"illegal character {source[offset]!r}"
    return LexError(*_line_col(source, offset), message)


@gc_paused
def tokenize(source: str) -> TokenStream:
    """Tokenize OpenQASM source into a `TokenStream`'s `kinds` and `lexemes`
    columns, dropping whitespace and comments. Lexemes are verbatim source
    substrings; no position is worked out (see `TokenStream.position`). The
    first fault in source order is a LexError: a separator's first character
    that is not whitespace (illegal, or a `"` not closed on its line), or a
    last token `/*` with no `*/`."""
    parts = _TOKEN.split(source)
    separators, lexemes = parts[0::2], parts[1::2]
    if "".join(separators).translate(_DROP_WHITESPACE):
        k = next(k for k, sep in enumerate(separators) if sep.translate(_DROP_WHITESPACE))
        fault = separators[k]
        raise _lex_error(source, sum(map(len, parts[: 2 * k])) + len(fault) - len(fault.lstrip(" \t\r\n")))
    last = lexemes[-1] if lexemes else ""
    if last.startswith("/*") and (len(last) < 4 or not last.endswith("*/")):
        raise _lex_error(source, len(source) - len(last))
    del parts, separators  # the largest temporaries: 2 entries per token
    kinds = _kinds(lexemes)
    if "//" in source or "/*" in source:
        keep = [kind is not _COMMENT for kind in kinds]
        kinds, lexemes = list(compress(kinds, keep)), list(compress(lexemes, keep))
    kinds.append(EOF)
    lexemes.append("")
    return TokenStream(kinds, lexemes, source)


def _starts(source: str, lexemes: list[str]) -> list[int]:
    """Where each token `tokenize` read from `source` into `lexemes` starts,
    then where the EOF entry does: just past the last token, or at 0."""
    parts = _TOKEN.split(source)
    ends = list(accumulate(map(len, parts)))  # parts[k] starts at ends[k - 1]
    starts = [ends[k - 1] for k in range(1, len(parts), 2) if parts[k][:2] not in ("//", "/*")]
    return starts + [starts[-1] + len(lexemes[-2]) if starts else 0]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Span = int  # the index of a node's first token in its TokenStream


@dataclass(slots=True)
class IntLit:
    value: int
    span: Span = field(compare=False)


@dataclass(slots=True)
class FloatLit:
    value: float
    span: Span = field(compare=False)


@dataclass(slots=True)
class PiConst:
    span: Span = field(compare=False)


@dataclass(slots=True)
class NamedRef:
    name: str
    index: "Expr | None"
    span: Span = field(compare=False)


@dataclass(slots=True)
class Unary:
    op: str  # "-"
    operand: "Expr"
    span: Span = field(compare=False)


@dataclass(slots=True)
class Binary:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(compare=False)


@dataclass(slots=True)
class Comparison:
    op: str  # == != < <= > >=
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(compare=False)


Expr = IntLit | FloatLit | PiConst | NamedRef | Unary | Binary | Comparison


@dataclass(slots=True)
class Modifier:
    kind: str  # ctrl | negctrl | inv | pow
    exponent: Expr | None = None


@dataclass(slots=True)
class QubitDecl:
    name: str
    size: int
    span: Span = field(compare=False)


@dataclass(slots=True)
class BitDecl:
    name: str
    size: int
    span: Span = field(compare=False)


@dataclass(slots=True)
class InputDecl:
    name: str
    count: int
    array: bool
    span: Span = field(compare=False)


@dataclass(slots=True)
class ConstDecl:
    name: str
    is_int: bool
    expr: Expr
    span: Span = field(compare=False)


@dataclass(slots=True)
class GateCall:
    modifiers: list[Modifier]
    name: str
    args: list[Expr]
    qubits: list[NamedRef]
    span: Span = field(compare=False)


@dataclass(slots=True)
class GateDef:
    name: str
    params: list[str]
    qubits: list[str]
    body: list[GateCall]
    span: Span = field(compare=False)


@dataclass(slots=True)
class MeasureAssign:
    target: NamedRef  # classical bit ref
    source: NamedRef  # qubit ref
    span: Span = field(compare=False)


@dataclass(slots=True)
class Reset:
    target: NamedRef
    span: Span = field(compare=False)


@dataclass(slots=True)
class Barrier:
    targets: list[NamedRef]
    span: Span = field(compare=False)


@dataclass(slots=True)
class IfStatement:
    condition: Expr  # Comparison or bare NamedRef
    then_body: list["Statement"]
    else_body: list["Statement"]
    span: Span = field(compare=False)


@dataclass(slots=True)
class ForStatement:
    var: str
    start: Expr
    step: Expr | None
    stop: Expr
    body: list["Statement"]
    span: Span = field(compare=False)


Statement = (
    QubitDecl
    | BitDecl
    | InputDecl
    | ConstDecl
    | GateDef
    | GateCall
    | MeasureAssign
    | Reset
    | Barrier
    | IfStatement
    | ForStatement
)


@dataclass(slots=True)
class ProgramAst:
    includes: list[str]
    statements: list[Statement]
    tokens: TokenStream = field(compare=False, repr=False)  # what the spans index


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
_MODIFIERS = ("ctrl", "negctrl", "inv", "pow")
# keywords that start a statement the subset leaves out, and the construct
# each names: a classical declaration, or an include past the header's
_UNSUPPORTED_STARTS = {"float": "float", "int": "int", "array": "array", "include": "include after other statements"}
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_ARG_ENDS = (",", ")")  # what may follow a gate argument built without parse_expr

# Deepest nesting the parser accepts, counting if/for blocks, parentheses,
# unary minus and each operator of a chain together. Parser, sema and the
# emitters all recurse over the tree, so this keeps every pass well under the
# interpreter's recursion limit.
MAX_NESTING = 100
# The most digits of an integer literal or fold: int() and str() refuse more than int_max_str_digits (0, none, or >= 640).
MAX_INT_DIGITS = 640


class _Parser:
    """Recursive descent over a `TokenStream`'s columns; tokens and spans are indices, and `pos` never passes EOF."""

    def __init__(self, tokens: TokenStream):
        self.tokens, self.kinds, self.lexemes = tokens, tokens.kinds, tokens.lexemes
        self.pos = 0
        self.depth = 0

    # -- token stream helpers
    def at(self, lexeme: str) -> bool:
        # never true at a STRING (its lexeme keeps its quotes) or at EOF ("")
        return self.lexemes[self.pos] == lexeme

    def advance(self) -> int:
        i = self.pos
        if self.kinds[i] != EOF:
            self.pos += 1
        return i

    def enter(self, i: int) -> None:
        """One level deeper in a block or expression, rejected past MAX_NESTING
        at token `i`; the caller lowers `depth` again on the way out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} levels of nesting", i)

    def error(self, expected: str, i: int | None = None) -> ParseError:
        i = self.pos if i is None else i
        found = self.lexemes[i] if self.kinds[i] != EOF else "end of input"
        return ParseError(*self.tokens.position(i), expected, found)

    def expect(self, lexeme: str, expected: str | None = None) -> int:
        if self.lexemes[self.pos] != lexeme:
            raise self.error(expected or repr(lexeme))
        self.pos += 1
        return self.pos - 1

    def expect_kind(self, kind: str, expected: str) -> int:
        if self.kinds[self.pos] != kind:
            raise self.error(expected)
        self.pos += 1
        return self.pos - 1

    def comma_list(self, item) -> list:
        """`item (',' item)*`: what each call of `item` parses, in order."""
        items = [item()]
        while self.lexemes[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return items

    def unsupported(self, construct: str, i: int | None = None):
        i = self.pos if i is None else i
        raise UnsupportedConstruct(*self.tokens.position(i), construct, self.lexemes[i])

    # -- program structure
    def parse_program(self) -> ProgramAst:
        self.parse_header()
        includes = []
        while self.at("include"):
            includes.append(self.parse_include())
        statements = []
        while self.kinds[self.pos] != EOF:
            statements.append(self.parse_statement())
        return ProgramAst(includes, statements, self.tokens)

    def parse_header(self) -> None:
        self.expect("OPENQASM", "'OPENQASM 3.0;' header")
        self.expect("3.0", "version 3.0")  # only a FLOAT can read 3.0
        self.expect(";")

    def parse_include(self) -> str:
        i = self.expect("include")
        name = self.lexemes[self.expect_kind(STRING, "include file name")][1:-1]
        if name != "stdgates.inc":
            self.unsupported(f'include "{name}"', i)
        self.expect(";")
        return name

    # -- statements
    def parse_statement(self) -> Statement:
        kind, lexeme = self.kinds[self.pos], self.lexemes[self.pos]
        if kind == KEYWORD:
            handler = _STATEMENT_PARSERS.get(lexeme)
            if handler is not None:
                return handler(self)
            if lexeme in _MODIFIERS:
                return self.parse_gate_call()
            if lexeme in _UNSUPPORTED_STARTS:
                self.unsupported(_UNSUPPORTED_STARTS[lexeme])
        if kind == IDENTIFIER:
            if lexeme in UNSUPPORTED_CONSTRUCTS:
                self.unsupported(lexeme)
            # `c = measure q;` or `c[i] = measure q;`: a gate's name is
            # followed by `(` or an operand, never by `[` or `=`. The current
            # token is not EOF, so the next one exists.
            if self.lexemes[self.pos + 1] in ("[", "="):
                return self.parse_measure_assign()
            return self.parse_gate_call()
        raise self.error("a statement")

    def parse_register_decl(self) -> QubitDecl | BitDecl:
        i = self.advance()
        size = 1
        if self.at("["):  # optional `[N]`
            self.advance()
            size = self.int_lit(self.expect_kind(INTEGER, "register size"))
            self.expect("]")
        name = self.expect_kind(IDENTIFIER, "register name")
        self.expect(";")
        return (QubitDecl if self.lexemes[i] == "qubit" else BitDecl)(self.lexemes[name], size, i)

    def parse_input_decl(self) -> InputDecl:
        i = self.advance()
        if self.at("float"):
            self.advance()
            self.expect("[")
            width = self.expect_kind(INTEGER, "float width 32 or 64")
            self.expect("]")
            if self.lexemes[width] not in ("32", "64"):
                raise self.error("float width 32 or 64 (for an N-element parameter use 'input array[float[64], N] name;')", width)
            name = self.expect_kind(IDENTIFIER, "parameter name")
            self.expect(";")
            return InputDecl(self.lexemes[name], 1, False, i)
        if self.at("array"):
            self.advance()
            self.expect("[")
            self.expect("float", "element type float")
            self.expect("[")
            width = self.expect_kind(INTEGER, "float width 32 or 64")
            if self.lexemes[width] not in ("32", "64"):
                raise self.error("float width 32 or 64", width)
            self.expect("]")
            self.expect(",")
            count = self.expect_kind(INTEGER, "element count")
            self.expect("]")
            name = self.expect_kind(IDENTIFIER, "parameter name")
            self.expect(";")
            return InputDecl(self.lexemes[name], self.int_lit(count), True, i)
        self.unsupported(f"input type {self.lexemes[self.pos]!r} (only float scalars/arrays)")

    def parse_const_decl(self) -> ConstDecl:
        i = self.advance()
        if not (self.at("float") or self.at("int")):
            raise self.error("'float' or 'int'")
        is_int = self.lexemes[self.advance()] == "int"
        name = self.expect_kind(IDENTIFIER, "constant name")
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return ConstDecl(self.lexemes[name], is_int, expr, i)

    def parse_gate_def(self) -> GateDef:
        i = self.advance()
        name = self.expect_kind(IDENTIFIER, "gate name")
        params: list[str] = []
        if self.at("("):
            self.advance()
            if not self.at(")"):
                params = self.comma_list(lambda: self.lexemes[self.expect_kind(IDENTIFIER, "parameter name")])
            self.expect(")")
        qubits = self.comma_list(lambda: self.lexemes[self.expect_kind(IDENTIFIER, "qubit name")])
        self.expect("{")
        body: list[GateCall] = []
        while not self.at("}"):
            kind, lexeme = self.kinds[self.pos], self.lexemes[self.pos]
            if kind == EOF:
                raise self.error("'}' closing gate body")
            if kind == KEYWORD and lexeme not in _MODIFIERS:
                self.unsupported(f"{lexeme} inside gate body")
            body.append(self.parse_gate_call())
        self.expect("}")
        return GateDef(self.lexemes[name], params, qubits, body, i)

    def parse_gate_call(self) -> GateCall:
        kinds, lexemes = self.kinds, self.lexemes
        i = self.pos
        modifiers: list[Modifier] = []
        while kinds[self.pos] == KEYWORD and lexemes[self.pos] in _MODIFIERS:
            modifier = lexemes[self.pos]
            self.pos += 1
            if modifier == "pow":
                self.expect("(")
                modifiers.append(Modifier("pow", self.parse_expr()))
                self.expect(")")
            else:
                modifiers.append(Modifier(modifier))
            self.expect("@", "'@' after gate modifier")
        name = self.expect_kind(IDENTIFIER, "gate name")
        args: list[Expr] = []
        if lexemes[self.pos] == "(":
            self.pos += 1
            while True:
                # A lone literal or negated literal, the common angle, is
                # built as parse_expr would build it, depth and errors alike.
                j = self.pos
                if kinds[j] == FLOAT and lexemes[j + 1] in _ARG_ENDS:
                    args.append(self.float_lit(j))
                    self.pos = j + 1
                elif lexemes[j] == "-" and kinds[j + 1] == FLOAT and lexemes[j + 2] in _ARG_ENDS:
                    self.enter(j)
                    args.append(Unary("-", self.float_lit(j + 1), j))
                    self.depth -= 1
                    self.pos = j + 2
                else:
                    args.append(self.parse_expr())
                if lexemes[self.pos] != ",":
                    break
                self.pos += 1
            self.expect(")")
        qubits = [self.parse_ref()]
        while lexemes[self.pos] == ",":
            self.pos += 1
            qubits.append(self.parse_ref())
        self.expect(";")
        return GateCall(modifiers, lexemes[name], args, qubits, i)

    def parse_ref(self) -> NamedRef:
        name = self.expect_kind(IDENTIFIER, "a register reference")
        index = None
        if self.lexemes[self.pos] == "[":
            i = self.pos + 1
            if self.kinds[i] == INTEGER and self.lexemes[i + 1] == "]":  # a literal index
                index = IntLit(self.int_lit(i), i)
                self.pos = i + 2
            else:
                self.pos = i
                index = self.parse_expr()
                self.expect("]")
        return NamedRef(self.lexemes[name], index, name)

    def parse_measure_arrow(self) -> MeasureAssign:
        i = self.advance()
        source = self.parse_ref()
        self.expect("->", "'->'")
        target = self.parse_ref()
        self.expect(";")
        return MeasureAssign(target, source, i)

    def parse_measure_assign(self) -> MeasureAssign:
        i = self.pos
        target = self.parse_ref()
        self.expect("=")
        if not self.at("measure"):
            self.unsupported("classical assignment (only '= measure')")
        self.advance()
        source = self.parse_ref()
        self.expect(";")
        return MeasureAssign(target, source, i)

    def parse_reset(self) -> Reset:
        i = self.advance()
        target = self.parse_ref()
        self.expect(";")
        return Reset(target, i)

    def parse_barrier(self) -> Barrier:
        i = self.advance()
        targets = [] if self.at(";") else self.comma_list(self.parse_ref)
        self.expect(";")
        return Barrier(targets, i)

    def parse_if(self) -> IfStatement:
        i = self.advance()
        self.enter(i)
        self.expect("(")
        condition: Expr = self.parse_ref()
        if self.lexemes[self.pos] in _CMP_OPS:
            op = self.lexemes[self.advance()]
            condition = Comparison(op, condition, self.parse_expr(), condition.span)
        self.expect(")")
        then_body = self.parse_block()
        else_body: list[Statement] = []
        if self.at("else"):
            self.advance()
            else_body = self.parse_block()
        self.depth -= 1
        return IfStatement(condition, then_body, else_body, i)

    def parse_for(self) -> ForStatement:
        i = self.advance()
        self.enter(i)
        self.expect("int", "'int' loop variable type")
        var = self.expect_kind(IDENTIFIER, "loop variable")
        self.expect("in")
        self.expect("[")
        first = self.parse_expr()
        self.expect(":")
        step: Expr | None = None
        stop = self.parse_expr()
        if self.at(":"):
            self.advance()
            step, stop = stop, self.parse_expr()
        self.expect("]")
        body = self.parse_block()
        self.depth -= 1
        return ForStatement(self.lexemes[var], first, step, stop, body, i)

    def parse_block(self) -> list[Statement]:
        self.expect("{", "'{'")
        body: list[Statement] = []
        while not self.at("}"):
            kind, lexeme = self.kinds[self.pos], self.lexemes[self.pos]
            if kind == EOF:
                raise self.error("'}'")
            if kind == KEYWORD and lexeme in ("qubit", "bit", "input", "const", "gate"):
                self.unsupported(f"{lexeme} declaration inside a block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    # -- expressions: precedence climbing over + - (1) and * / (2), all
    # left-associative, above unary minus and primaries
    def parse_expr(self, min_prec: int = 1) -> Expr:
        depth = self.depth
        left = self.parse_primary()
        i = self.pos
        while self.kinds[i] == OPERATOR and _BINARY_PREC.get(self.lexemes[i], 0) >= min_prec:
            op = self.lexemes[i]
            self.pos += 1
            self.enter(i)  # each operator nests the tree built so far
            left = Binary(op, left, self.parse_expr(_BINARY_PREC[op] + 1), left.span)
            i = self.pos
        self.depth = depth
        return left

    def parse_primary(self) -> Expr:
        """A literal, `pi`, a reference, a parenthesized expression, or unary
        minus over a primary."""
        i = self.pos
        kind, lexeme = self.kinds[i], self.lexemes[i]
        if kind == INTEGER:
            self.pos += 1
            return IntLit(self.int_lit(i), i)
        if kind == FLOAT:
            self.pos += 1
            return self.float_lit(i)
        if kind == IDENTIFIER:
            if lexeme == "pi":
                self.pos += 1
                return PiConst(i)
            return self.parse_ref()
        if lexeme == "-":
            self.pos += 1
            self.enter(i)
            operand = self.parse_primary()
            self.depth -= 1
            return Unary("-", operand, i)
        if lexeme == "(":
            self.pos += 1
            self.enter(i)
            expr = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return expr
        raise self.error("an expression")

    def int_lit(self, i: int) -> int:
        """The integer literal at token `i`, of at most MAX_INT_DIGITS digits."""
        if len(self.lexemes[i]) > MAX_INT_DIGITS:
            raise self.error(f"an integer literal of at most {MAX_INT_DIGITS} digits", i)
        return int(self.lexemes[i])

    def float_lit(self, i: int) -> FloatLit:
        """The float literal at token `i`, which must be finite."""
        value = float(self.lexemes[i])
        if math.isinf(value):  # a lexeme of digits is never NaN
            raise self.error("a finite float literal", i)
        return FloatLit(value, i)


_STATEMENT_PARSERS = {
    "qubit": _Parser.parse_register_decl,
    "bit": _Parser.parse_register_decl,
    "input": _Parser.parse_input_decl,
    "const": _Parser.parse_const_decl,
    "gate": _Parser.parse_gate_def,
    "measure": _Parser.parse_measure_arrow,
    "reset": _Parser.parse_reset,
    "barrier": _Parser.parse_barrier,
    "if": _Parser.parse_if,
    "for": _Parser.parse_for,
}


@gc_paused
def parse(tokens: TokenStream) -> ProgramAst:
    """Parse a token stream into a ProgramAst; the first error aborts. The
    stream is only read, so it can be parsed again."""
    return _Parser(tokens).parse_program()


def parse_source(source: str) -> ProgramAst:
    return parse(tokenize(source))
