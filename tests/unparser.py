"""A canonical pretty-printer from a `ProgramAst` back to OpenQASM 3.0 text,
for the round-trip tests and the statement-level mutator."""

from qasm2cudaq import frontend as fe


def unparse_expr(e: fe.Expr) -> str:
    if isinstance(e, fe.IntLit):
        return str(e.value)
    if isinstance(e, fe.FloatLit):
        return repr(e.value)
    if isinstance(e, fe.PiConst):
        return "pi"
    if isinstance(e, fe.NamedRef):
        return e.name if e.index is None else f"{e.name}[{unparse_expr(e.index)}]"
    if isinstance(e, fe.Unary):
        return f"-({unparse_expr(e.operand)})"
    if isinstance(e, fe.Binary):
        return f"({unparse_expr(e.lhs)} {e.op} {unparse_expr(e.rhs)})"
    if isinstance(e, fe.Comparison):
        return f"{unparse_expr(e.lhs)} {e.op} {unparse_expr(e.rhs)}"
    raise TypeError(f"unknown expression node {e!r}")


def _unparse_call(stmt: fe.GateCall) -> str:
    parts = [f"pow({unparse_expr(m.exponent)}) @ " if m.kind == "pow" else f"{m.kind} @ " for m in stmt.modifiers]
    parts.append(stmt.name)
    if stmt.args:
        parts.append("(" + ", ".join(unparse_expr(a) for a in stmt.args) + ")")
    parts.append(" " + ", ".join(unparse_expr(q) for q in stmt.qubits) + ";")
    return "".join(parts)


def _unparse_stmt(stmt: fe.Statement, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, (fe.QubitDecl, fe.BitDecl)):
        out.append(f"{pad}{'qubit' if isinstance(stmt, fe.QubitDecl) else 'bit'}[{stmt.size}] {stmt.name};")
    elif isinstance(stmt, fe.InputDecl):
        ty = f"array[float[64], {stmt.count}]" if stmt.array else "float[64]"
        out.append(f"{pad}input {ty} {stmt.name};")
    elif isinstance(stmt, fe.ConstDecl):
        ty = "int" if stmt.is_int else "float"
        out.append(f"{pad}const {ty} {stmt.name} = {unparse_expr(stmt.expr)};")
    elif isinstance(stmt, fe.GateDef):
        params = f"({', '.join(stmt.params)})" if stmt.params else ""
        out.append(f"{pad}gate {stmt.name}{params} {', '.join(stmt.qubits)} {{")
        for call in stmt.body:
            out.append(f"{pad}  {_unparse_call(call)}")
        out.append(f"{pad}}}")
    elif isinstance(stmt, fe.GateCall):
        out.append(pad + _unparse_call(stmt))
    elif isinstance(stmt, fe.MeasureAssign):
        out.append(f"{pad}{unparse_expr(stmt.target)} = measure {unparse_expr(stmt.source)};")
    elif isinstance(stmt, fe.Reset):
        out.append(f"{pad}reset {unparse_expr(stmt.target)};")
    elif isinstance(stmt, fe.Barrier):
        refs = ", ".join(unparse_expr(t) for t in stmt.targets)
        out.append(f"{pad}barrier{' ' + refs if refs else ''};")
    elif isinstance(stmt, fe.IfStatement):
        out.append(f"{pad}if ({unparse_expr(stmt.condition)}) {{")
        for s in stmt.then_body:
            _unparse_stmt(s, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}}} else {{")
            for s in stmt.else_body:
                _unparse_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, fe.ForStatement):
        rng = ":".join(unparse_expr(e) for e in (stmt.start, stmt.step, stmt.stop) if e is not None)
        out.append(f"{pad}for int {stmt.var} in [{rng}] {{")
        for s in stmt.body:
            _unparse_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement node {stmt!r}")


def unparse(program: fe.ProgramAst) -> str:
    """Render a ProgramAst back to canonical source text."""
    out = ["OPENQASM 3.0;", *(f'include "{inc}";' for inc in program.includes)]
    for stmt in program.statements:
        _unparse_stmt(stmt, 0, out)
    return "\n".join(out) + "\n"
