"""The README's library tour runs as written and prints what it claims."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_values() -> list:
    """Run the python block under "## Library tour" statement by statement;
    return the value of each bare expression, in order."""
    section = README.read_text().split("## Library tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return values


def test_library_tour_gives_its_commented_values():
    fid, res, bare, contradiction = _tour_values()
    assert abs(fid - 1.0) < 1e-12
    assert res < 1e-12
    assert abs(bare - 0.625) < 1e-12
    assert contradiction == (1.0, 4.0)
