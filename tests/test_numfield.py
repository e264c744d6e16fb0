import math
import random
import re
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arithmeticoid import numfield
from arithmeticoid.numfield import (
    FieldElement,
    FieldError,
    InfiniteOrder,
    LogForm,
    NumberField,
    archimedean_place,
    divisor_support,
    log_form,
    ord,
    places_over,
    places_up_to,
    product_formula_check,
    roots_of_unity,
    splitting_type,
)

Q = NumberField()
QI = NumberField(1)
Q3 = NumberField(3)


# ---------------------------------------------------------------- oracles

def oracle_splitting(field, p):
    """Brute-force roots of the minimal polynomial of omega mod p."""
    t, n = field.omega_trace, field.omega_norm
    roots = [r for r in range(p) if (r * r - t * r + n) % p == 0]
    if len(roots) == 2:
        return "split"
    if len(roots) == 0:
        return "inert"
    # single root: ramified iff it is a double root, which for a quadratic it is
    return "ramified"


def oracle_norm(x):
    if x.field.d is None:
        return float(x.a)
    omega = complex(x.field.omega_trace / 2, math.sqrt(-x.field.discriminant) / 2)
    return abs(complex(x.a) + complex(x.b) * omega) ** 2


def random_element(rng, field, span=30):
    while True:
        a = Fraction(rng.randint(-span, span), rng.randint(1, span))
        b = Fraction(rng.randint(-span, span), rng.randint(1, span)) if field.d else Fraction(0)
        x = field.element(a, b)
        if not x.is_zero():
            return x


@dataclass(frozen=True)
class FractionElement:
    """The former FieldElement: a + b*omega with Fraction coordinates, each
    operation written on the coordinates; b = 0 over Q."""

    field: NumberField
    a: Fraction
    b: Fraction

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def conjugate(self):
        # omega-bar = trace(omega) - omega
        return FractionElement(self.field, self.a + self.b * self.field.omega_trace, -self.b)

    def norm(self):
        if self.field.d is None:
            return self.a
        t, n = self.field.omega_trace, self.field.omega_norm
        return self.a * self.a + self.a * self.b * t + self.b * self.b * n

    def __add__(self, other):
        return FractionElement(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FractionElement(self.field, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        t, n = self.field.omega_trace, self.field.omega_norm
        # omega^2 = t*omega - n
        a = self.a * other.a - self.b * other.b * n
        b = self.a * other.b + self.b * other.a + self.b * other.b * t
        return FractionElement(self.field, a, b)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        if self.field.d is None:
            return FractionElement(self.field, 1 / self.a, Fraction(0))
        nrm = self.norm()
        c = self.conjugate()
        return FractionElement(self.field, c.a / nrm, c.b / nrm)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        x = self.inverse() if k < 0 else self
        out = FractionElement(self.field, Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            out = out * x
        return out

    def __str__(self):
        if self.field.d is None or self.b == 0:
            return str(self.a)
        sign, mag = ("+", self.b) if self.b > 0 else ("-", -self.b)
        w = "w" if mag == 1 else f"{mag}*w"
        if self.a == 0:
            return w if sign == "+" else f"-{w}"
        return f"{self.a}{sign}{w}"


def _frac_valuation(q, p):
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _digit_lifted_root(field, p, index, k):
    """The index-th smallest root of omega's polynomial mod p, lifted to p^k
    one base-p digit at a time by search."""
    t, n = field.omega_trace, field.omega_norm
    r = [r for r in range(p) if (r * r - t * r + n) % p == 0][index]
    for j in range(1, k):
        r = next(c for c in range(r, p ** (j + 1), p ** j)
                 if (c * c - t * c + n) % p ** (j + 1) == 0)
    return r


def oracle_ord(x: FractionElement, v) -> int:
    """ord_v from the Fraction coordinates: the p-adic valuation of a over Q, of
    the norm at the place alone over an inert or ramified p, and at a split
    place of a + b*r for r that place's root of omega's polynomial mod p^40."""
    p = v.prime
    if x.field.d is None:
        return _frac_valuation(x.a, p)
    kind = oracle_splitting(x.field, p)
    if kind == "inert":
        return _frac_valuation(x.norm(), p) // 2
    if kind == "ramified":
        return _frac_valuation(x.norm(), p)
    return _frac_valuation(x.a + x.b * _digit_lifted_root(x.field, p, v.conjugate_index, 40), p)


# ---------------------------------------------------------------- parsing

def test_parse_field_strings():
    assert NumberField.parse("Q") == Q
    assert NumberField.parse("Q(sqrt(-1))") == QI
    assert NumberField.parse("Q(sqrt(-163))").d == 163
    with pytest.raises(FieldError):
        NumberField.parse("Q(sqrt(-4))")  # not squarefree
    with pytest.raises(FieldError):
        NumberField.parse("Q(sqrt(2))")


def test_integral_basis_choice():
    assert not QI.half_basis and QI.discriminant == -4
    assert Q3.half_basis and Q3.discriminant == -3
    # omega = (1+sqrt(-3))/2 satisfies t^2 - t + 1
    w = Q3.omega()
    assert (w * w - w + Q3.one()).is_zero()


# ---------------------------------------------------------------- places

def test_places_up_to_rationals():
    vs = places_up_to(Q, 10)
    assert vs[0].is_archimedean
    assert [v.prime for v in vs[1:]] == [2, 3, 5, 7]


def test_gaussian_splitting_examples():
    (v2,) = places_over(QI, 2)
    assert (v2.e, v2.f) == (2, 1)
    v5s = places_over(QI, 5)
    assert len(v5s) == 2 and all((v.e, v.f) == (1, 1) for v in v5s)


def test_eisenstein_seven_splits():
    assert splitting_type(Q3, 7) == "split"
    assert oracle_splitting(Q3, 7) == "split"


def test_splitting_matches_bruteforce_oracle():
    for field in (QI, Q3, NumberField(5), NumberField(7), NumberField(163)):
        for p in numfield.primerange(2, 60):
            assert splitting_type(field, int(p)) == oracle_splitting(field, int(p)), (field, p)


def test_local_degrees_sum_to_field_degree():
    for field in (Q, QI, Q3, NumberField(5)):
        for p in numfield.primerange(2, 60):
            assert sum(v.e * v.f for v in places_over(field, int(p))) == field.degree


# ---------------------------------------------------------------- ord

def test_ord_examples():
    v5 = places_over(Q, 5)[0]
    assert ord(Q.element(5), v5) == 1
    assert ord(Q.element(Fraction(1, 5)), v5) == -1
    (v2,) = places_over(QI, 2)
    assert ord(QI.element(1, 1), v2) == 1  # (1+i)^2 = 2i


def test_ord_split_places_distinguish_conjugates():
    va, vb = places_over(QI, 5)
    x = QI.element(2, 1)  # norm 5
    vals = sorted([ord(x, va), ord(x, vb)])
    assert vals == [0, 1]
    xb = x.conjugate()
    assert ord(xb, va) == ord(x, vb) and ord(xb, vb) == ord(x, va)


def test_ord_additive_on_random_pairs():
    rng = random.Random(501)
    fields = [Q, QI, Q3]
    for _ in range(500):
        field = rng.choice(fields)
        x, y = random_element(rng, field), random_element(rng, field)
        for p in (2, 3, 5, 7):
            for v in places_over(field, p):
                assert ord(x * y, v) == ord(x, v) + ord(y, v)


def test_ord_matches_norm_valuation():
    # sum of f_v * ord_v over v | p equals ord_p of the norm
    rng = random.Random(502)
    for _ in range(200):
        field = rng.choice([QI, Q3, NumberField(5)])
        x = random_element(rng, field)
        n = x.norm()
        for p in (2, 3, 5, 7, 11, 13):
            np = 0
            num, den = n.numerator, n.denominator
            while num % p == 0:
                num //= p
                np += 1
            while den % p == 0:
                den //= p
                np -= 1
            assert sum(v.f * ord(x, v) for v in places_over(field, p)) == np


def test_ord_errors():
    v5 = places_over(Q, 5)[0]
    with pytest.raises(InfiniteOrder):
        ord(Q.element(0), v5)
    with pytest.raises(FieldError):
        ord(Q.element(5), archimedean_place(Q))


# ---------------------------------------------------------------- log forms

def test_log_form_examples():
    v5 = places_over(Q, 5)[0]
    r = log_form([(v5, 1)], Fraction(1))
    assert r.coefficients == {5: -1} and r.modulus == 1  # |5|_5 = 1/5
    assert r.value() == -math.log(5) and not r.exact
    five = log_form(divisor_support(Q.element(5)), Fraction(5))
    assert five.arch_log == pytest.approx(math.log(5), abs=1e-15)
    assert five.exact and five.value() == 0.0
    two = log_form(divisor_support(QI.element(1, 1)), abs(QI.element(1, 1).norm()))
    assert two.arch_log == pytest.approx(math.log(2), abs=1e-15)  # |N(1+i)| = 2
    assert two.coefficients == {2: -1} and two.exact
    with pytest.raises(InfiniteOrder):
        product_formula_check(QI.element(0))


def test_log_form_is_zero_is_exact():
    # prime-by-prime: a tiny modulus away from 1 is not 0, whatever its float
    near_one = LogForm({}, Fraction(10 ** 12 + 1, 10 ** 12))
    assert abs(near_one.value()) < 1e-11 and not near_one.exact
    assert LogForm({}).exact and LogForm({5: Fraction(0)}).exact
    assert LogForm({2: Fraction(-1), 3: Fraction(1)}, Fraction(2, 3)).exact
    assert not LogForm({2: Fraction(1, 2)}).exact
    assert not LogForm({2: Fraction(-1)}, Fraction(3)).exact
    assert LogForm({2: Fraction(-1)}, Fraction(3)).content == {2: -1, 3: 1}


def test_split_prime_whose_ords_cancel_keeps_both_key_sets():
    """ords +1 and -1 over 5: the form keeps 5 with coefficient 0, and the
    product-formula report lists only the primes of |N(x)|."""
    x = QI.element(Fraction(227, 55), Fraction(-132, 35))
    form = log_form(divisor_support(x), abs(x.norm()))
    assert list(form.coefficients) == [5, 7, 11, 241, 769] and form.coefficients[5] == 0
    assert form.exact
    rep = product_formula_check(x)
    assert list(rep.finite_exponent_sums) == [7, 11, 241, 769]
    assert list(rep.norm_exponents) == [241, 769, 7, 11]  # numerator primes first
    assert rep.exact and rep.residual == abs(form.value())


def test_norm_matches_complex_oracle():
    rng = random.Random(503)
    for _ in range(200):
        field = rng.choice([QI, Q3, NumberField(7)])
        x = random_element(rng, field)
        assert float(x.norm()) == pytest.approx(oracle_norm(x), rel=1e-9)


# ---------------------------------------------------------------- product formula

def test_product_formula_examples():
    rep = product_formula_check(Q.element(5))
    assert rep.exact and rep.residual < 1e-12
    rep = product_formula_check(Q.element(Fraction(6, 35)))
    assert rep.exact and rep.residual < 1e-12
    rep = product_formula_check(QI.element(2, 1))
    assert rep.exact and rep.residual < 1e-12


def test_product_formula_random():
    rng = random.Random(504)
    for _ in range(150):
        field = rng.choice([Q, QI, Q3, NumberField(5)])
        rep = product_formula_check(random_element(rng, field))
        assert rep.exact
        assert rep.residual < 1e-9


# ---------------------------------------------------------------- roots of unity

def test_roots_of_unity_listing():
    assert {str(x) for x in roots_of_unity(Q)} == {"1", "-1"}
    assert len(roots_of_unity(QI)) == 4
    assert len(roots_of_unity(Q3)) == 6
    assert len(roots_of_unity(NumberField(5))) == 2


def test_roots_of_unity_kernel_property():
    # every listed root: ord 0 everywhere, archimedean modulus 1
    for field in (Q, QI, Q3):
        for z in roots_of_unity(field):
            assert abs(z.norm()) == 1
            for p in (2, 3, 5, 7, 11):
                for v in places_over(field, p):
                    assert ord(z, v) == 0
    # sampled non-roots fail
    rng = random.Random(505)
    for _ in range(100):
        field = rng.choice([Q, QI, Q3])
        x = random_element(rng, field)
        if any(x == z for z in roots_of_unity(field)):
            continue
        flat = abs(x.norm()) == 1 and all(
            ord(x, v) == 0 for p in (2, 3, 5, 7, 11, 13) for v in places_over(field, p)
        )
        if flat:
            # norm-1 elements of an imaginary quadratic are roots of unity; must not happen
            assert False, f"unexpected unit {x}"


def test_power_identities():
    i = QI.omega()
    assert i ** 4 == QI.one()
    assert (i ** -1) == -i
    w = Q3.omega()
    assert w ** 6 == Q3.one() and w ** 3 != Q3.one()


def test_power_is_repeated_multiplication_within_the_squaring_budget():
    from functools import reduce

    from arithmeticoid.cohomology import _res_mul
    from arithmeticoid.numfield import power
    from arithmeticoid.padic import PadicScalar
    from arithmeticoid.szpiro import IDENTITY_2x2, _mat_mul

    def residue_mul(a, b):
        return _res_mul(a, b, Q3.omega_trace, Q3.omega_norm, 7 ** 4)

    cases = [
        (QI.element(Fraction(2, 3), -1), FieldElement.__mul__, QI.one()),
        (PadicScalar.from_fraction(Fraction(10, 3), 5, 8), PadicScalar.__mul__,
         PadicScalar(5, 0, 1, 8)),
        ((3, 5), residue_mul, (1, 0)),
        (((2, 1), (1, 1)), _mat_mul, IDENTITY_2x2),
        (((0, -1), (1, 3)), _mat_mul, IDENTITY_2x2),
    ]
    for x, mul, one in cases:
        for k in range(71):
            calls = []

            def counted(a, b):
                calls.append(1)
                return mul(a, b)

            assert power(x, k, counted, one) == reduce(mul, [x] * k, one), (x, k)
            assert len(calls) <= 2 * k.bit_length(), (x, k)
    with pytest.raises(ValueError):
        power(QI.one(), -1, FieldElement.__mul__, QI.one())


def test_divisor_support_has_one_home():
    from arithmeticoid import adelic, heights, numfield

    assert adelic.divisor_support is numfield.divisor_support
    assert heights.divisor_support is numfield.divisor_support


def test_divisor_support_signs():
    by_prime = {v.prime: o for v, o in divisor_support(Q.element(Fraction(12, 5)))}
    assert by_prime == {2: 2, 3: 1, 5: -1}
    with pytest.raises(InfiniteOrder, match="0 has no divisor"):
        divisor_support(Q.element(0))


def test_no_module_imports_sympy():
    import ast
    from pathlib import Path

    import arithmeticoid

    def imports_sympy(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "sympy" for a in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"

    offenders = []
    for path in sorted(Path(arithmeticoid.__file__).parent.glob("*.py")):
        # ast.walk also reaches imports inside functions
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if imports_sympy(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_carrier_modules_call_no_isclose():
    """Carrier coordinates are exact, so their equality needs no tolerance."""
    import ast
    from pathlib import Path

    import arithmeticoid

    offenders = []
    for name in ("adelic.py", "ffcurve.py", "heights.py"):
        path = Path(arithmeticoid.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "isclose" in (getattr(func, "attr", None),
                                                              getattr(func, "id", None)):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def _functions(path):
    from ast import FunctionDef, parse, walk

    tree = parse(path.read_text(encoding="utf-8"))
    return tree, [node for node in walk(tree) if isinstance(node, FunctionDef)]


def test_verdicts_compare_against_no_float_literal():
    """product-formula, period-map, degree and stabilized-height decide exactly."""
    import ast
    from pathlib import Path

    import arithmeticoid

    _, funcs = _functions(Path(arithmeticoid.__file__).parent / "cli_field.py")
    names = {"cmd_product_formula", "cmd_period_map", "cmd_degree", "cmd_stabilized_height"}
    checked, offenders = set(), []
    for func in funcs:
        if func.name not in names:
            continue
        checked.add(func.name)
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                offenders += [f"{func.name}:{c.lineno}" for c in ast.walk(node)
                              if isinstance(c, ast.Constant) and isinstance(c.value, float)]
    assert checked == names
    assert not offenders, offenders


def test_one_function_evaluates_log_terms():
    """float(c) * math.log(p) is written once under src/: in numfield.log_term."""
    import ast
    from pathlib import Path

    import arithmeticoid

    def callee(node):
        return ast.unparse(node.func) if isinstance(node, ast.Call) else None

    def is_log_term(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and {callee(node.left), callee(node.right)} == {"float", "math.log"})

    found, total = set(), 0
    for path in sorted(Path(arithmeticoid.__file__).parent.glob("*.py")):
        tree, funcs = _functions(path)
        total += sum(map(is_log_term, ast.walk(tree)))
        found |= {(path.name, f.name) for f in funcs if any(map(is_log_term, ast.walk(f)))}
    assert total == 1 and found == {("numfield.py", "log_term")}, (total, found)


def _uncalled_public_names(pkg, files):
    """Top-level public functions and classes defined in pkg, and the public
    methods and properties of those classes, that no file names beyond their
    own definition.  Dunders and private names are exempt."""
    import ast

    def names(nodes):
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    defined, used = [], set()
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.parent != pkg or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used |= names([node])
                continue
            parts = [(node, [node])]
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [m for m in node.body if m not in methods]
                parts = [(node, node.bases + node.keywords + node.decorator_list + rest)]
                parts += [(m, [m]) for m in methods]
            for d, body in parts:
                # a recursive call is not a caller, nor a class naming itself
                used |= names(body) - {d.name, node.name}
                if not d.name.startswith("_"):
                    defined.append((d.name, f"{path.name}:{d.lineno} {d.name}"))
    return sorted(where for name, where in defined if name not in used)


def test_every_public_name_has_a_caller():
    """A top-level public function or class in src/arithmeticoid/ is named in
    src/, demos/ or benchmark/ beyond its own definition and its __init__ export."""
    from pathlib import Path

    import arithmeticoid

    pkg = Path(arithmeticoid.__file__).parent
    root = pkg.parent.parent
    assert (root / "demos").is_dir() and (root / "benchmark").is_dir()
    files = [path for path in sorted(pkg.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "benchmark").glob("*.py"))
    dead = _uncalled_public_names(pkg, files)
    assert not dead, dead


def test_caller_guard_flags_a_planted_dead_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return used()\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def _private():\n    return 0\n\n\n"
        "class Called:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def read(self):\n        return self.n\n\n"
        "    def unread(self):\n        return self.unread()\n\n"
        "    @property\n    def shown(self):\n        return self.read()\n\n\n"
        "class Dead:\n"
        "    def __copy__(self):\n        return Dead()\n", encoding="utf-8")
    (tmp_path / "demo.py").write_text("from pkg.mod import Called\nCalled().shown\n",
                                      encoding="utf-8")
    files = [pkg / "mod.py", tmp_path / "demo.py"]
    assert _uncalled_public_names(pkg, files) == ["mod.py:24 unread", "mod.py:32 Dead",
                                                  "mod.py:5 dead", "mod.py:9 recursive"]


# modules allowed to import each other at module level (``from .x import``
# outside functions), by importer; an edge left out here, such as ffcurve ->
# tilt or cli -> szpiro, would make every command that loads the importer pay
# for the imported layer
IMPORT_GRAPH = {
    "__init__": set(),
    "__main__": {"cli"},
    "adelic": {"numfield", "ffcurve"},
    "cli": {"numfield"},
    "cli_cohomology": {"cli", "cohomology"},
    "cli_field": {"cli", "numfield"},
    "cli_szpiro": {"cli", "rng", "szpiro"},
    "cli_tilt": {"cli", "rng", "tilt"},
    "cohomology": {"numfield"},
    "ffcurve": {"numfield"},
    "heights": {"numfield", "ffcurve", "adelic", "padic"},
    "numfield": set(),
    "padic": {"numfield"},
    "rng": set(),
    "szpiro": {"numfield", "rng"},
    "tilt": {"numfield"},
}


def _module_level_imports(source: str) -> set:
    """The sibling modules that ``source`` imports when it loads."""
    import ast

    def executed(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # runs when called
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                continue  # never runs
            yield node
            yield from executed(ast.iter_child_nodes(node))

    found = set()
    for node in executed(ast.parse(source).body):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_only_the_allowed_siblings_at_load():
    from pathlib import Path

    import arithmeticoid

    paths = sorted(Path(arithmeticoid.__file__).parent.glob("*.py"))
    graph = {p.stem: _module_level_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert graph == IMPORT_GRAPH


def test_import_guard_sees_past_functions_and_type_checking():
    source = ("from . import a\nfrom .b import x as y\nif TYPE_CHECKING:\n    from .c import z\n"
              "try:\n    from .d import w\nexcept ImportError:\n    pass\n"
              "def f():\n    from .e import v\nclass K:\n    from . import g\n")
    assert _module_level_imports(source) == {"a", "b", "d", "g"}


# third-party modules that a command not using them must not pay for at start-up
DEFERRED = ("sympy", "mpmath", "numpy")
CLI_CORE = ["arithmeticoid", "arithmeticoid.cli", "arithmeticoid.numfield"]
# the benchmark's CLI examples that compute no cover height, with every package
# module each one loads
NUMPY_FREE_EXAMPLES = [
    (["height", "--field", "Q", "--z", "5"],
     ["adelic", "cli_field", "ffcurve", "heights", "padic"]),
    (["product-formula", "--field", "Q(sqrt(-1))", "--x", "2+i", "--format", "json"],
     ["cli_field"]),
    (["orbit", "--field", "Q(sqrt(-3))", "--bound", "3"], ["adelic", "cli_field", "ffcurve"]),
    (["tilt", "witt-check", "--p", "2", "--count", "50", "--seed", "11", "--format", "csv"],
     ["cli_tilt", "rng", "tilt"]),
    (["places", "--field", "Q(sqrt(5))"], []),  # exits 1 on the field, before its handler
    (["tilt", "artin-hasse", "--p", "4"], ["cli_tilt", "rng", "tilt"]),
]


def _loaded_after(*steps: str) -> list:
    """For each code step, run in turn in one fresh interpreter: the package's
    modules and those of DEFERRED that it holds after the step."""
    show = ("print('loaded:', *sorted(m for m in sys.modules"
            f" if m.split('.')[0] == 'arithmeticoid' or m in {DEFERRED!r}))")
    probe = "import sys\n" + "".join(f"{code}\n{show}\n" for code in steps)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("loaded:")]
    assert len(lines) == len(steps), proc.stdout
    return lines


def test_cli_import_leaves_deferred_modules_unloaded():
    """The package loads no module of its own, the CLI only its core, and the
    package's names load the three layers they come from."""
    package, cli, names = _loaded_after("import arithmeticoid", "import arithmeticoid.cli",
                                        "from arithmeticoid import *")
    assert package == ["arithmeticoid"]
    assert cli == CLI_CORE
    layers = ["arithmeticoid." + m for m in ("adelic", "ffcurve", "heights", "padic")]
    assert names == sorted(CLI_CORE + layers)


def test_package_names_resolve_to_their_modules():
    import arithmeticoid
    from arithmeticoid import adelic, heights

    assert arithmeticoid.__all__[-1] == "__version__"
    for name in arithmeticoid.__all__[:-1]:
        value = getattr(arithmeticoid, name)
        assert any(getattr(m, name, None) is value for m in (numfield, adelic, heights)), name
    assert set(arithmeticoid.__all__) <= set(dir(arithmeticoid))
    with pytest.raises(AttributeError):
        arithmeticoid.no_such_name


def test_szpiro_loads_numpy_on_the_first_height():
    code = "from arithmeticoid import szpiro\nszpiro.height_q(szpiro.lift(((2, 1), (1, 1))))"
    before, after = _loaded_after("import arithmeticoid.szpiro", code)
    assert "numpy" not in before and "numpy" in after


@pytest.mark.parametrize("argv,handler_modules", NUMPY_FREE_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in NUMPY_FREE_EXAMPLES])
def test_cli_examples_without_cover_heights_leave_numpy_unloaded(argv, handler_modules):
    """Each example loads the CLI core and the modules its handler calls, and
    neither numpy nor any other layer."""
    [loaded] = _loaded_after(f"from arithmeticoid.cli import main\nmain({argv!r})")
    assert loaded == sorted(CLI_CORE + ["arithmeticoid." + m for m in handler_modules])


# ---------------------------------------------------------------- number theory vs sympy

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161]
# strong pseudoprimes to the first 4, 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461,
                       numfield._MR_BOUND]
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309]
PRIME_SQUARES = [p * p for p in (1009, 65537, 1000003, 10 ** 12 + 39, 10 ** 13 + 37)]
# within factorint's budget: every prime factor is below 10^8 or its square is n
ADVERSARIAL = [0, 1, 2, 3, 4, 997, 1009, 997 * 997, 1009 * 1013, 977024578892552268,
               (10 ** 12 + 39) ** 3, 1000003 ** 5 * 7, 2 ** 89 - 1, *CARMICHAEL,
               *STRONG_PSEUDOPRIMES[:2], *STRONG_LUCAS_PSEUDOPRIMES, *PRIME_SQUARES]


def _around_mr_bound():
    """Primes and composites on both sides of the Miller-Rabin bound."""
    from sympy import nextprime, prevprime

    b = numfield._MR_BOUND
    below, above = prevprime(b), nextprime(b)
    return [below, b - 1, b + 1, above, below * above, nextprime(10 ** 30) * nextprime(10 ** 31)]


@SETTINGS
@given(st.integers(-10, 10 ** 30))
def test_isprime_matches_sympy(n):
    from sympy import isprime as sympy_isprime

    assert numfield.isprime(n) == sympy_isprime(n)


def test_isprime_on_adversarial_inputs_and_both_sides_of_the_miller_rabin_bound():
    from sympy import isprime as sympy_isprime

    for n in [*ADVERSARIAL, *STRONG_PSEUDOPRIMES, *_around_mr_bound()]:
        assert numfield.isprime(n) == sympy_isprime(n), n
    assert not numfield.isprime(numfield._MR_BOUND)  # fools all 13 Miller-Rabin bases


def _free_of_trial_primes(n):
    """The least m >= n that no prime below 1000 divides."""
    while any(n % p == 0 for p in numfield._TRIAL_PRIMES):
        n += 1
    return n


@SETTINGS
@given(st.one_of(st.integers(10 ** 3, 10 ** 40).map(_free_of_trial_primes),
                 st.sampled_from(STRONG_LUCAS_PSEUDOPRIMES)))
@example(1093 ** 2)  # a square passes base 2 here, and has no Selfridge D
@example((10 ** 13 + 37) ** 2)
def test_strong_lucas_test_matches_sympy(n):
    from sympy.ntheory.primetest import is_strong_lucas_prp

    assert numfield._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n)


def _check_factorint(n):
    from sympy import factorint as sympy_factorint

    got = numfield.factorint(n)
    assert got == sympy_factorint(n), n
    assert list(got) == sorted(got), n


@SETTINGS
@given(st.one_of(st.integers(-10 ** 15, 10 ** 15),
                 st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4).map(math.prod)))
def test_factorint_matches_sympy_in_ascending_order(n):
    _check_factorint(n)


def test_factorint_on_adversarial_inputs():
    # the first four lie next to the bound and have no two factors above 10^8
    for n in [*ADVERSARIAL, *_around_mr_bound()[:4]]:
        _check_factorint(n)
    # sympy lists 88009829 before 71162257 here
    assert list(numfield.factorint(977024578892552268)) == [2, 3, 13, 71162257, 88009829]


def test_factorint_gives_up_at_its_budget():
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match=f"FACTOR_BUDGET = {numfield.FACTOR_BUDGET}"):
        numfield.factorint(10 ** 120 + 7)
    assert time.perf_counter() - t0 < 1.0
    # two primes near 10^13: rho needs about 3 * 10^6 steps, past the budget
    n = (10 ** 13 + 37) * (10 ** 13 + 51)
    with pytest.raises(FieldError, match=f"cannot factor {n}"):
        numfield.factorint(n)


@SETTINGS
@given(st.integers(0, 10 ** 7), st.integers(0, 3000))
@example(0, 3000)
@example(2, 1)
def test_primerange_matches_sympy(a, length):
    from sympy import primerange as sympy_primerange

    assert numfield.primerange(a, a + length) == list(sympy_primerange(a, a + length))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(numfield.primerange(2, 3000)))
@example(2)
@example(257)   # 2^8 + 1
@example(769)   # 3 * 2^8 + 1
@example(2689)  # 21 * 2^7 + 1
def test_sqrt_mod_matches_sympy_at_every_residue(p):
    from sympy.ntheory.residue_ntheory import sqrt_mod as sympy_sqrt_mod

    for a in range(p):
        assert numfield.sqrt_mod(a, p) == sympy_sqrt_mod(a, p), (a, p)


def test_split_roots_at_a_large_prime():
    # 998244353 = 119 * 2^23 + 1: Tonelli-Shanks runs through all 23 levels
    p = 998244353
    assert splitting_type(QI, p) == "split"
    r0, r1 = numfield._split_roots(QI, p)
    assert r0 < r1 and (r0 * r0 + 1) % p == 0 and (r1 * r1 + 1) % p == 0


# ---------------------------------------------------------------- integer elements vs the Fraction oracle

ORACLE_FIELDS = (Q, QI, Q3, NumberField(5), NumberField(7))
# over 2, 3, 5 and 7 these fields give every kind: Q(i) ramifies 2, splits 5 and
# keeps 3 and 7 inert; Q(sqrt(-3)) ramifies 3 and splits 7; Q(sqrt(-5)) ramifies
# 2 and 5 and splits 3 and 7; Q(sqrt(-7)) splits 2 and ramifies 7
SMALL_PLACES = {field: [v for p in (2, 3, 5, 7) for v in places_over(field, p)]
                for field in ORACLE_FIELDS}
_coordinate = st.one_of(st.integers(-40, 40),
                        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)))


def _canonical(x):
    assert x.D > 0 and math.gcd(x.A, x.B, x.D) == 1, repr(x)
    assert x.field.d is not None or x.B == 0, repr(x)


def _agrees(x, old):
    """x is canonical and has the oracle element's coordinates and string."""
    _canonical(x)
    assert (x.a, x.b) == (old.a, old.b), (repr(x), old)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert str(x) == str(old)


def _check_full_support(support, old):
    """Past the primes up to 7: the support is canonically ordered with nonzero
    ords, lies over primes of the norm or of a coordinate's denominator (sympy
    factors them), and at each such p gives sum_v f_v ord_v = ord_p N(x)."""
    from sympy import primefactors

    n = old.norm()
    primes = set().union(*(primefactors(m) for m in (
        n.numerator, n.denominator, old.a.denominator, old.b.denominator)))
    assert support == sorted(support, key=lambda t: numfield.place_key(t[0]))
    assert all(o for _, o in support) and {v.prime for v, _ in support} <= primes
    for p in primes:
        assert sum(v.f * o for v, o in support if v.prime == p) == _frac_valuation(n, p)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ORACLE_FIELDS), _coordinate, _coordinate, _coordinate, _coordinate,
       st.integers(-4, 4))
@example(Q, Fraction(-3, 4), 0, Fraction(-2), 0, -3)           # negative D from the inverse
@example(QI, Fraction(1, 2), Fraction(1, 2), 1, -1, -2)         # (1 + i)/2: norm 2/4
@example(NumberField(7), Fraction(1, 2), Fraction(-1, 4), 0, 3, 5)  # trace term of norm
def test_integer_elements_match_the_fraction_oracle(field, a, b, c, e, k):
    if field.d is None:
        b = e = 0
    x, y = field.element(a, b), field.element(c, e)
    ox, oy = FractionElement(field, Fraction(a), Fraction(b)), FractionElement(field, Fraction(c), Fraction(e))
    _agrees(x, ox)
    _agrees(y, oy)
    _agrees(x + y, ox + oy)
    _agrees(x - y, ox - oy)
    _agrees(x * y, ox * oy)
    _agrees(-x, FractionElement(field, -ox.a, -ox.b))
    _agrees(x.conjugate(), ox.conjugate())
    assert x.norm() == ox.norm() and type(x.norm()) is Fraction
    n, dn = x.norm_ints()
    assert Fraction(n, dn) == ox.norm() and dn == x.D ** field.degree
    assert (x == y) == ((ox.a, ox.b) == (oy.a, oy.b))
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        _agrees(x / y, ox / oy)
        _agrees(y.inverse(), oy.inverse())
        again = x * y / y  # the same element by another route, so the same ints
        assert again == x and hash(again) == hash(x) and again.D == x.D
    if x.is_zero():
        return
    _agrees(x ** k, ox ** k)
    for v in SMALL_PLACES[field]:
        assert ord(x, v) == oracle_ord(ox, v), (x, v)
    support = divisor_support(x)
    small = [(v, o) for v in SMALL_PLACES[field] if (o := oracle_ord(ox, v))]
    assert [(v, o) for v, o in support if v.prime <= 7] == small
    _check_full_support(support, ox)


def test_element_rejects_floats_and_other_non_rationals():
    from decimal import Decimal

    assert Q.element(1) == Q.element(Fraction(1)) and QI.element(0, True) == QI.omega()
    for bad in (0.1, 1.0, 0.0, 2j, Decimal("0.1"), "1", None):
        for build in (lambda: Q.element(bad), lambda: QI.element(1, bad),
                      lambda: QI.element(bad, Fraction(1, 2))):
            with pytest.raises(FieldError, match=re.escape(repr(bad))):
                build()
    with pytest.raises(FieldError, match="nonzero omega coordinate"):
        Q.element(1, 1)


def test_the_constructor_admits_only_the_reduced_form():
    """FieldElement(field, A, B, D) takes only D > 0, gcd(A, B, D) = 1 and B = 0
    over Q, so NumberField.element and the arithmetic are the only ways to an
    element, and no second form of a number compares unequal to it."""
    for field, A, B, D in ((Q, 2, 0, 4), (Q, 1, 1, 1), (Q, 1, 0, 0), (Q, 1, 0, -2),
                           (QI, 1, 0, -1), (QI, -1, -2, -3), (QI, 2, 4, 6), (QI, 0, 0, 2),
                           (QI, 0, 0, 0), (Q3, 3, 6, 9)):
        with pytest.raises(FieldError, match="not the reduced form"):
            FieldElement(field, A, B, D)
    half = QI.element(Fraction(1, 2), Fraction(1, 2))
    assert FieldElement(QI, 1, 1, 2) == half and hash(FieldElement(QI, 1, 1, 2)) == hash(half)
    assert FieldElement(Q, 1, 0, 2) == Q.element(Fraction(1, 2))
    assert FieldElement(QI, 0, 0, 1) == QI.element(0)
    with pytest.raises(FieldError, match="not the reduced form"):
        replace(QI.element(2), D=2)
    with pytest.raises(FrozenInstanceError):
        half.D = 4
