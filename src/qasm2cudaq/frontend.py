"""OpenQASM 3.0 frontend: tokenizer, typed AST, and recursive-descent parser.

The accepted grammar is a frozen subset of OpenQASM 3.0: register
declarations, `input` parameters, `const` declarations, gate definitions,
gate calls with ctrl/negctrl/inv/pow modifiers, measurement (arrow and
assignment forms), reset, barrier, if/else over classical bits, and bounded
`for` loops. Anything else is a ParseError naming the construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

# One scanner for tokens, whitespace and comments. Alternatives sharing a
# first character keep their precedence: `//` and `/*` before the `/`
# operator, FLOAT before INT, and each error group after the good
# alternative it shadows. Digits are ASCII `[0-9]`, as in OpenQASM: `\d`
# would also match other scripts' decimal digits.
_SCANNER = re.compile(
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

_KINDS = {"FLOAT": FLOAT, "INT": INTEGER, "STRING": STRING, "OP": OPERATOR, "PUNCT": PUNCTUATION}
_LEX_ERRORS = {"BADBC": "unterminated block comment", "BADSTR": "unterminated string literal"}


@dataclass(slots=True)
class Token:
    kind: str
    lexeme: str
    line: int
    col: int


@gc_paused
def tokenize(source: str) -> list[Token]:
    """Tokenize OpenQASM source, dropping whitespace and comments.

    One pass of `_SCANNER.finditer` over the source. Line and column are
    tracked as it goes: only whitespace and block comments can hold a
    newline, and each one moves the line count and the start of the current
    line. Lexemes are verbatim source substrings; line/col are 1-based and
    point at the first character of the lexeme.

    Errors, each a LexError at the offending character: `BADBC` (a `/*`
    with no closing `*/`) and `BADSTR` (a `"` with no closing `"` on its
    line) are scanner groups; an illegal character is a gap between the
    end of one match and the start of the next, or of the source.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for m in _SCANNER.finditer(source):
        start = m.start()
        if start != pos:
            break
        group = m.lastgroup
        lexeme = m.group()
        pos = m.end()
        if group == "IDENT":
            append(Token(KEYWORD if lexeme in KEYWORDS else IDENTIFIER, lexeme, line, start - line_start + 1))
        elif group == "WS" or group == "BC":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = start + lexeme.rfind("\n") + 1
        elif group in _LEX_ERRORS:
            raise LexError(line, start - line_start + 1, _LEX_ERRORS[group])
        elif group != "LC":
            append(Token(_KINDS[group], lexeme, line, start - line_start + 1))
    if pos != len(source):
        raise LexError(line, pos - line_start + 1, f"illegal character {source[pos]!r}")
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Span = tuple[int, int]


@dataclass
class IntLit:
    value: int
    span: Span = field(compare=False)


@dataclass
class FloatLit:
    value: float
    span: Span = field(compare=False)


@dataclass
class PiConst:
    span: Span = field(compare=False)


@dataclass
class NamedRef:
    name: str
    index: "Expr | None"
    span: Span = field(compare=False)


@dataclass
class Unary:
    op: str  # "-"
    operand: "Expr"
    span: Span = field(compare=False)


@dataclass
class Binary:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(compare=False)


@dataclass
class Comparison:
    op: str  # == != < <= > >=
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(compare=False)


Expr = IntLit | FloatLit | PiConst | NamedRef | Unary | Binary | Comparison


@dataclass
class Modifier:
    kind: str  # ctrl | negctrl | inv | pow
    exponent: Expr | None = None


@dataclass
class QubitDecl:
    name: str
    size: int
    span: Span = field(compare=False)


@dataclass
class BitDecl:
    name: str
    size: int
    span: Span = field(compare=False)


@dataclass
class InputDecl:
    name: str
    count: int
    array: bool
    span: Span = field(compare=False)


@dataclass
class ConstDecl:
    name: str
    is_int: bool
    expr: Expr
    span: Span = field(compare=False)


@dataclass
class GateCall:
    modifiers: list[Modifier]
    name: str
    args: list[Expr]
    qubits: list[NamedRef]
    span: Span = field(compare=False)


@dataclass
class GateDef:
    name: str
    params: list[str]
    qubits: list[str]
    body: list[GateCall]
    span: Span = field(compare=False)


@dataclass
class MeasureAssign:
    target: NamedRef  # classical bit ref
    source: NamedRef  # qubit ref
    span: Span = field(compare=False)


@dataclass
class Reset:
    target: NamedRef
    span: Span = field(compare=False)


@dataclass
class Barrier:
    targets: list[NamedRef]
    span: Span = field(compare=False)


@dataclass
class IfStatement:
    condition: Expr  # Comparison or bare NamedRef
    then_body: list["Statement"]
    else_body: list["Statement"]
    span: Span = field(compare=False)


@dataclass
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


@dataclass
class ProgramAst:
    version: tuple[int, int]
    includes: list[str]
    statements: list[Statement]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_PARSE_CALLS = 0


def parse_call_count() -> int:
    return _PARSE_CALLS


def _reset_parse_calls() -> None:
    global _PARSE_CALLS
    _PARSE_CALLS = 0


_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
_MODIFIERS = ("ctrl", "negctrl", "inv", "pow")
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

# Deepest nesting the parser accepts, counting if/for blocks, parentheses,
# unary minus and each operator of a chain together. Parser, sema and the
# emitters all recurse over the tree, so this keeps every pass well under the
# interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        if tokens:
            last = tokens[-1]
            eof = Token(EOF, "", last.line, last.col + len(last.lexeme))
        else:
            eof = Token(EOF, "", 1, 1)
        self.tokens = tokens + [eof]
        self.pos = 0
        self.depth = 0

    # -- token stream helpers; `pos` never passes the EOF token at the end
    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else self.tokens[-1]

    def at(self, lexeme: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.lexeme == lexeme and tok.kind != STRING

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def enter(self, tok: Token) -> None:
        """One level deeper in a block or expression, rejected past MAX_NESTING
        at `tok`; the caller lowers `depth` again on the way out."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok.line, tok.col, f"at most {MAX_NESTING} levels of nesting", tok.lexeme)

    def error(self, expected: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        found = tok.lexeme if tok.kind != EOF else "end of input"
        return ParseError(tok.line, tok.col, expected, found)

    def expect(self, lexeme: str, expected: str | None = None) -> Token:
        if not self.at(lexeme):
            raise self.error(expected or repr(lexeme))
        return self.advance()

    def expect_kind(self, kind: str, expected: str) -> Token:
        if self.tokens[self.pos].kind != kind:
            raise self.error(expected)
        return self.advance()

    def comma_list(self, item) -> list:
        """`item (',' item)*`: what each call of `item` parses, in order."""
        items = [item()]
        while self.tokens[self.pos].lexeme == ",":  # a STRING lexeme keeps its quotes, so is never ","
            self.pos += 1
            items.append(item())
        return items

    def unsupported(self, construct: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise UnsupportedConstruct(tok.line, tok.col, construct, tok.lexeme)

    # -- program structure
    def parse_program(self) -> ProgramAst:
        version = self.parse_header()
        includes = []
        while self.at("include"):
            includes.append(self.parse_include())
        statements = []
        while self.peek().kind != EOF:
            if self.at("include"):
                self.unsupported("include after other statements")
            statements.append(self.parse_statement())
        return ProgramAst(version, includes, statements)

    def parse_header(self) -> tuple[int, int]:
        self.expect("OPENQASM", "'OPENQASM 3.0;' header")
        tok = self.peek()
        if tok.kind != FLOAT or tok.lexeme != "3.0":
            raise self.error("version 3.0")
        self.advance()
        self.expect(";")
        return (3, 0)

    def parse_include(self) -> str:
        tok = self.expect("include")
        name_tok = self.expect_kind(STRING, "include file name")
        name = name_tok.lexeme[1:-1]
        if name != "stdgates.inc":
            self.unsupported(f'include "{name}"', tok)
        self.expect(";")
        return name

    # -- statements
    def parse_statement(self) -> Statement:
        tok = self.tokens[self.pos]
        if tok.kind == KEYWORD:
            handler = _STATEMENT_PARSERS.get(tok.lexeme)
            if handler is not None:
                return handler(self)
            if tok.lexeme in _MODIFIERS:
                return self.parse_gate_call()
            self.unsupported(tok.lexeme)
        if tok.kind == IDENTIFIER:
            if tok.lexeme in UNSUPPORTED_CONSTRUCTS:
                self.unsupported(tok.lexeme)
            # Disambiguate `c = measure q;` / `c[i] = measure q;` from a call.
            if self._lookahead_is_assign():
                return self.parse_measure_assign()
            return self.parse_gate_call()
        raise self.error("a statement")

    def _lookahead_is_assign(self) -> bool:
        i = 1
        if self.peek(i).lexeme == "[":
            depth = 1
            i += 1
            while depth and self.peek(i).kind != EOF:
                if self.peek(i).lexeme == "[":
                    depth += 1
                elif self.peek(i).lexeme == "]":
                    depth -= 1
                i += 1
        return self.peek(i).lexeme == "="

    def _decl_size(self) -> int:
        """Optional `[N]` suffix on qubit/bit declarations."""
        if not self.at("["):
            return 1
        self.advance()
        size_tok = self.expect_kind(INTEGER, "register size")
        self.expect("]")
        return int(size_tok.lexeme)

    def parse_register_decl(self) -> QubitDecl | BitDecl:
        tok = self.advance()
        size = self._decl_size()
        name = self.expect_kind(IDENTIFIER, "register name")
        self.expect(";")
        return (QubitDecl if tok.lexeme == "qubit" else BitDecl)(name.lexeme, size, (tok.line, tok.col))

    def parse_input_decl(self) -> InputDecl:
        tok = self.advance()
        if self.at("float"):
            self.advance()
            self.expect("[")
            width_tok = self.expect_kind(INTEGER, "float width 32 or 64")
            self.expect("]")
            if width_tok.lexeme not in ("32", "64"):
                raise ParseError(
                    width_tok.line,
                    width_tok.col,
                    "float width 32 or 64 (for an N-element parameter use "
                    "'input array[float[64], N] name;')",
                    width_tok.lexeme,
                )
            name = self.expect_kind(IDENTIFIER, "parameter name")
            self.expect(";")
            return InputDecl(name.lexeme, 1, False, (tok.line, tok.col))
        if self.at("array"):
            self.advance()
            self.expect("[")
            self.expect("float", "element type float")
            self.expect("[")
            width_tok = self.expect_kind(INTEGER, "float width 32 or 64")
            if width_tok.lexeme not in ("32", "64"):
                raise self.error("float width 32 or 64", width_tok)
            self.expect("]")
            self.expect(",")
            count_tok = self.expect_kind(INTEGER, "element count")
            self.expect("]")
            name = self.expect_kind(IDENTIFIER, "parameter name")
            self.expect(";")
            return InputDecl(name.lexeme, int(count_tok.lexeme), True, (tok.line, tok.col))
        self.unsupported(f"input type {self.peek().lexeme!r} (only float scalars/arrays)")

    def parse_const_decl(self) -> ConstDecl:
        tok = self.advance()
        if self.at("float"):
            is_int = False
        elif self.at("int"):
            is_int = True
        else:
            raise self.error("'float' or 'int'")
        self.advance()
        name = self.expect_kind(IDENTIFIER, "constant name")
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return ConstDecl(name.lexeme, is_int, expr, (tok.line, tok.col))

    def parse_gate_def(self) -> GateDef:
        tok = self.advance()
        name = self.expect_kind(IDENTIFIER, "gate name")
        params: list[str] = []
        if self.at("("):
            self.advance()
            if not self.at(")"):
                params = self.comma_list(lambda: self.expect_kind(IDENTIFIER, "parameter name").lexeme)
            self.expect(")")
        qubits = self.comma_list(lambda: self.expect_kind(IDENTIFIER, "qubit name").lexeme)
        self.expect("{")
        body: list[GateCall] = []
        while not self.at("}"):
            if self.peek().kind == EOF:
                raise self.error("'}' closing gate body")
            stmt_tok = self.peek()
            if stmt_tok.kind == KEYWORD and stmt_tok.lexeme not in _MODIFIERS:
                self.unsupported(f"{stmt_tok.lexeme} inside gate body")
            body.append(self.parse_gate_call())
        self.expect("}")
        return GateDef(name.lexeme, params, qubits, body, (tok.line, tok.col))

    def parse_gate_call(self) -> GateCall:
        tok = mod_tok = self.tokens[self.pos]
        modifiers: list[Modifier] = []
        while mod_tok.kind == KEYWORD and mod_tok.lexeme in _MODIFIERS:
            self.pos += 1
            if mod_tok.lexeme == "pow":
                self.expect("(")
                exponent = self.parse_expr()
                self.expect(")")
                modifiers.append(Modifier("pow", exponent))
            else:
                modifiers.append(Modifier(mod_tok.lexeme))
            self.expect("@", "'@' after gate modifier")
            mod_tok = self.tokens[self.pos]
        name = self.expect_kind(IDENTIFIER, "gate name")
        args: list[Expr] = []
        if self.at("("):
            self.advance()
            args = self.comma_list(self.parse_expr)
            self.expect(")")
        qubits = self.comma_list(self.parse_ref)
        self.expect(";")
        return GateCall(modifiers, name.lexeme, args, qubits, (tok.line, tok.col))

    def parse_ref(self) -> NamedRef:
        name = self.expect_kind(IDENTIFIER, "a register reference")
        index = None
        if self.at("["):
            self.advance()
            index = self.parse_expr()
            self.expect("]")
        return NamedRef(name.lexeme, index, (name.line, name.col))

    def parse_measure_arrow(self) -> MeasureAssign:
        tok = self.advance()
        source = self.parse_ref()
        self.expect("->", "'->'")
        target = self.parse_ref()
        self.expect(";")
        return MeasureAssign(target, source, (tok.line, tok.col))

    def parse_measure_assign(self) -> MeasureAssign:
        tok = self.peek()
        target = self.parse_ref()
        self.expect("=")
        if not self.at("measure"):
            self.unsupported("classical assignment (only '= measure')")
        self.advance()
        source = self.parse_ref()
        self.expect(";")
        return MeasureAssign(target, source, (tok.line, tok.col))

    def parse_reset(self) -> Reset:
        tok = self.advance()
        target = self.parse_ref()
        self.expect(";")
        return Reset(target, (tok.line, tok.col))

    def parse_barrier(self) -> Barrier:
        tok = self.advance()
        targets = [] if self.at(";") else self.comma_list(self.parse_ref)
        self.expect(";")
        return Barrier(targets, (tok.line, tok.col))

    def parse_if(self) -> IfStatement:
        tok = self.advance()
        self.enter(tok)
        self.expect("(")
        subject = self.parse_ref()
        if self.peek().lexeme in _CMP_OPS:
            op = self.advance().lexeme
            rhs = self.parse_expr()
            condition: Expr = Comparison(op, subject, rhs, subject.span)
        else:
            condition = subject
        self.expect(")")
        then_body = self.parse_block()
        else_body: list[Statement] = []
        if self.at("else"):
            self.advance()
            else_body = self.parse_block()
        self.depth -= 1
        return IfStatement(condition, then_body, else_body, (tok.line, tok.col))

    def parse_for(self) -> ForStatement:
        tok = self.advance()
        self.enter(tok)
        self.expect("int", "'int' loop variable type")
        var = self.expect_kind(IDENTIFIER, "loop variable")
        self.expect("in")
        self.expect("[")
        first = self.parse_expr()
        self.expect(":")
        second = self.parse_expr()
        step: Expr | None = None
        if self.at(":"):
            self.advance()
            stop = self.parse_expr()
            step = second
        else:
            stop = second
        self.expect("]")
        body = self.parse_block()
        self.depth -= 1
        return ForStatement(var.lexeme, first, step, stop, body, (tok.line, tok.col))

    def parse_block(self) -> list[Statement]:
        self.expect("{", "'{'")
        body: list[Statement] = []
        while not self.at("}"):
            if self.peek().kind == EOF:
                raise self.error("'}'")
            tok = self.peek()
            if tok.kind == KEYWORD and tok.lexeme in ("qubit", "bit", "input", "const", "gate"):
                self.unsupported(f"{tok.lexeme} declaration inside a block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    # -- expressions: precedence climbing over + - (1) and * / (2), all
    # left-associative, above unary minus and primaries
    def parse_expr(self, min_prec: int = 1) -> Expr:
        depth = self.depth
        left = self.parse_unary()
        tok = self.tokens[self.pos]
        while tok.kind == OPERATOR and _BINARY_PREC.get(tok.lexeme, 0) >= min_prec:
            self.pos += 1
            self.enter(tok)  # each operator nests the tree built so far
            left = Binary(tok.lexeme, left, self.parse_expr(_BINARY_PREC[tok.lexeme] + 1), left.span)
            tok = self.tokens[self.pos]
        self.depth = depth
        return left

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == OPERATOR and tok.lexeme == "-":
            self.pos += 1
            self.enter(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary("-", operand, (tok.line, tok.col))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == INTEGER:
            self.pos += 1
            return IntLit(int(tok.lexeme), (tok.line, tok.col))
        if tok.kind == FLOAT:
            self.pos += 1
            value = float(tok.lexeme)
            if value != value or value in (float("inf"), float("-inf")):
                raise ParseError(tok.line, tok.col, "a finite float literal", tok.lexeme)
            return FloatLit(value, (tok.line, tok.col))
        if tok.kind == IDENTIFIER:
            if tok.lexeme == "pi":
                self.pos += 1
                return PiConst((tok.line, tok.col))
            return self.parse_ref()
        if tok.lexeme == "(":
            self.pos += 1
            self.enter(tok)
            expr = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return expr
        raise self.error("an expression")


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
def parse(tokens: list[Token]) -> ProgramAst:
    """Parse a token list into a ProgramAst; the first error aborts."""
    global _PARSE_CALLS
    _PARSE_CALLS += 1
    return _Parser(tokens).parse_program()


def parse_source(source: str) -> ProgramAst:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Unparser (canonical pretty-printer used by the round-trip tests)
# ---------------------------------------------------------------------------


def unparse_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, PiConst):
        return "pi"
    if isinstance(e, NamedRef):
        return e.name if e.index is None else f"{e.name}[{unparse_expr(e.index)}]"
    if isinstance(e, Unary):
        return f"-({unparse_expr(e.operand)})"
    if isinstance(e, Binary):
        return f"({unparse_expr(e.lhs)} {e.op} {unparse_expr(e.rhs)})"
    if isinstance(e, Comparison):
        return f"{unparse_expr(e.lhs)} {e.op} {unparse_expr(e.rhs)}"
    raise TypeError(f"unknown expression node {e!r}")


def _unparse_call(stmt: GateCall) -> str:
    parts = []
    for mod in stmt.modifiers:
        if mod.kind == "pow":
            parts.append(f"pow({unparse_expr(mod.exponent)}) @ ")
        else:
            parts.append(f"{mod.kind} @ ")
    parts.append(stmt.name)
    if stmt.args:
        parts.append("(" + ", ".join(unparse_expr(a) for a in stmt.args) + ")")
    parts.append(" " + ", ".join(unparse_expr(q) for q in stmt.qubits) + ";")
    return "".join(parts)


def _unparse_stmt(stmt: Statement, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, QubitDecl):
        out.append(f"{pad}qubit[{stmt.size}] {stmt.name};")
    elif isinstance(stmt, BitDecl):
        out.append(f"{pad}bit[{stmt.size}] {stmt.name};")
    elif isinstance(stmt, InputDecl):
        if stmt.array:
            out.append(f"{pad}input array[float[64], {stmt.count}] {stmt.name};")
        else:
            out.append(f"{pad}input float[64] {stmt.name};")
    elif isinstance(stmt, ConstDecl):
        ty = "int" if stmt.is_int else "float"
        out.append(f"{pad}const {ty} {stmt.name} = {unparse_expr(stmt.expr)};")
    elif isinstance(stmt, GateDef):
        params = f"({', '.join(stmt.params)})" if stmt.params else ""
        out.append(f"{pad}gate {stmt.name}{params} {', '.join(stmt.qubits)} {{")
        for call in stmt.body:
            out.append(f"{pad}  {_unparse_call(call)}")
        out.append(f"{pad}}}")
    elif isinstance(stmt, GateCall):
        out.append(pad + _unparse_call(stmt))
    elif isinstance(stmt, MeasureAssign):
        out.append(f"{pad}{unparse_expr(stmt.target)} = measure {unparse_expr(stmt.source)};")
    elif isinstance(stmt, Reset):
        out.append(f"{pad}reset {unparse_expr(stmt.target)};")
    elif isinstance(stmt, Barrier):
        refs = ", ".join(unparse_expr(t) for t in stmt.targets)
        out.append(f"{pad}barrier{' ' + refs if refs else ''};")
    elif isinstance(stmt, IfStatement):
        out.append(f"{pad}if ({unparse_expr(stmt.condition)}) {{")
        for s in stmt.then_body:
            _unparse_stmt(s, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                _unparse_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, ForStatement):
        rng = unparse_expr(stmt.start)
        if stmt.step is not None:
            rng += f":{unparse_expr(stmt.step)}"
        rng += f":{unparse_expr(stmt.stop)}"
        out.append(f"{pad}for int {stmt.var} in [{rng}] {{")
        for s in stmt.body:
            _unparse_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement node {stmt!r}")


def unparse(program: ProgramAst) -> str:
    """Render a ProgramAst back to canonical source text."""
    out = [f"OPENQASM {program.version[0]}.{program.version[1]};"]
    for inc in program.includes:
        out.append(f'include "{inc}";')
    for stmt in program.statements:
        _unparse_stmt(stmt, 0, out)
    return "\n".join(out) + "\n"
