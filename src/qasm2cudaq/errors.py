"""Exception hierarchy shared across the compiler pipeline and simulator."""

from __future__ import annotations


class Qasm2CudaqError(Exception):
    """Base class for every error raised by this package."""


class LexError(Qasm2CudaqError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"lex error at {line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ParseError(Qasm2CudaqError):
    def __init__(self, line: int, col: int, expected: str, found: str):
        self._at(line, col, f"expected {expected}, found {found!r}")
        self.expected = expected
        self.found = found

    def _at(self, line: int, col: int, detail: str) -> None:
        Qasm2CudaqError.__init__(self, f"parse error at {line}:{col}: {detail}")
        self.line = line
        self.col = col


class UnsupportedConstruct(ParseError):
    """An OpenQASM 3.0 construct outside the supported subset, met at the
    token `found`."""

    def __init__(self, line: int, col: int, construct: str, found: str):
        self._at(line, col, f"construct not supported: {construct}")
        self.construct = construct
        self.found = found


class SemaError(Qasm2CudaqError):
    """Semantic analysis failure at `span`. Sema raises it with the offending
    node's span, a token index, and `sema.analyze` puts that token's
    (line, col) in its place (`at`)."""

    def __init__(self, message: str, span: int | tuple[int, int]):
        self.message = message
        self.at(span)

    def at(self, span: int | tuple[int, int]) -> None:
        self.span = span
        where = "%d:%d" % span if isinstance(span, tuple) else f"token {span}"
        Qasm2CudaqError.__init__(self, f"semantic error at {where}: {self.message}")


class UndefinedName(SemaError):
    pass


class Redefinition(SemaError):
    pass


class ArityMismatch(SemaError):
    pass


class IndexOutOfRange(SemaError):
    pass


class NonConstLoopBound(SemaError):
    pass


class RecursiveGateDef(SemaError):
    pass


class DuplicateQubitArg(SemaError):
    pass


class NotConst(SemaError):
    pass


class DivByZero(SemaError):
    pass


class NonFiniteConst(SemaError):
    """A constant expression that folds to inf or NaN, past a double's range, or past MAX_INT_DIGITS digits."""


class ProgramTooLarge(SemaError):
    pass


class LowerError(Qasm2CudaqError):
    pass


class BadParameter(Qasm2CudaqError):
    """Runtime parameter values of the wrong count, or one that is not a
    finite number."""


class SimError(Qasm2CudaqError):
    pass


class DynamicCircuit(SimError):
    pass


class DegenerateNorm(SimError):
    pass


class BadPauliString(SimError):
    pass


class DimensionMismatch(SimError):
    pass


class EmitError(Qasm2CudaqError):
    pass


class UnsupportedOp(EmitError):
    """A canonical op with no rendering in the target; unreachable for valid IR."""


class UnsupportedForTarget(EmitError):
    """A construct the target's emission grammar deliberately does not cover."""


class MissingGolden(EmitError):
    pass


class TooLarge(Qasm2CudaqError):
    pass
