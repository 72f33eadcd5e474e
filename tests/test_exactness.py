"""No floating-point arithmetic in the package.

Every probability, weight and covariance in ``src/suffcause/*.py`` is an
int or a ``Fraction``. The scan flags the ways a float gets in: a float or imaginary
literal, a call to ``float`` or ``round``, ``math.isclose`` or
``math.fsum``, a float-returning ``random.Random`` method (the generator
draws with ``randint``, ``sample`` and ``getrandbits`` only), and true
division ``/`` (``//`` stays integral; a ``Fraction`` is built with
``Fraction(a, b)``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "suffcause"
FLOAT_CALLS = {
    "float", "round", "isclose", "fsum",
    "random", "uniform", "choices", "gauss", "normalvariate", "expovariate", "betavariate", "triangular",
}


def inexact(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, float-producing call and true division."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in FLOAT_CALLS:
                found.append((node.lineno, f"call {name}()"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division /"))
    return sorted(found)


def test_scanner_catches_each_pattern():
    snippet = (
        "import math\n"
        "a = 0.5\n"
        "b = float(3)\n"
        "c = round(a)\n"
        "d = math.isclose(a, b)\n"
        "e = math.fsum([a])\n"
        "f = 1 / 2\n"
        "f /= 2\n"
        "ok = 7 // 2 + int('3') + len('x') + rng.randint(1, 8) + rng.getrandbits(4)\n"
        "g = rng.random()\n"
        "h = rng.uniform(0, 1)\n"
        "i = rng.choices([1, 2], weights=[1, 3])\n"
        "j = rng.gauss(0, 1)\n"
        "k = rng.normalvariate(0, 1)\n"
        "l = rng.expovariate(1)\n"
        "m = rng.betavariate(1, 2)\n"
        "n = rng.triangular()\n"
        "o = random.random()\n"
    )
    assert [line for line, _ in inexact(ast.parse(snippet))] == [2, 3, 4, 5, 6, 7, 8, *range(10, 19)]


def test_the_package_has_no_float_arithmetic():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {p.name: inexact(ast.parse(p.read_text())) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
