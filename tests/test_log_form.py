"""The one log-form against the inline float sums it replaced.

Each `old_*` function below is the expression the library evaluated before the
product formula, the hyperplane pairing and the arithmetic degree shared
`numfield.LogForm`; the new reports must reproduce their floats bit for bit
(compared by `float.hex`, so 0.0 and -0.0 differ) and their exact parts
as equal Fractions.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from arithmeticoid.adelic import (
    deform,
    global_frobenius,
    hyperplane_pairing,
    standard_arithmeticoid,
)
from arithmeticoid.ffcurve import LocalPointArch, local_point
from arithmeticoid.heights import (
    arithmetic_degree,
    ideloid_from_element,
    make_ideloid,
    scalar_height,
)
from arithmeticoid.numfield import (
    NumberField,
    archimedean_place,
    divisor_support,
    log_term,
    ord,
    place_key,
    places_over,
    prime_exponents,
    product_formula_check,
)

Q, QI, Q3, Q5 = NumberField(), NumberField(1), NumberField(3), NumberField(5)
FIELDS = (Q, QI, Q3, Q5)
# x / conj(x) over a split prime: ords +1 and -1 at its two places, norm 1
CANCELLING = {
    QI: (QI.element(Fraction(3, 5), Fraction(4, 5)),),                # (2+i)^2 / 5
    Q3: (Q3.element(2, 1) * Q3.element(2, 1) / Q3.element(7),),       # over 7
    Q5: (Q5.element(Fraction(2, 3), Fraction(1, 3)),),                # (2+sqrt(-5)) / 3
}
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _same(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


# ---------------------------------------------------------------------------
# the reference expressions

def old_product_formula(x):
    nrm = abs(x.norm())
    norm_exponents = prime_exponents(nrm)
    finite_sums = {}
    for p in sorted(norm_exponents):
        total = Fraction(0)
        for v in places_over(x.field, p):
            total += Fraction(-v.f * ord(x, v))
        finite_sums[p] = total
    arch = math.log(nrm.numerator) - math.log(nrm.denominator)
    residual = abs(arch + sum(float(c) * math.log(p) for p, c in finite_sums.items()))
    return finite_sums, norm_exponents, arch, residual


def old_hyperplane(y, x):
    finite = {}
    for v, o in divisor_support(x):
        e_beltrami = y.component(v).e
        alpha = Fraction(v.e * v.f) / e_beltrami
        finite[v.prime] = finite.get(v.prime, Fraction(0)) + alpha * (-(e_beltrami / v.e) * o)
    nrm = abs(x.norm())
    arch_term = math.log(nrm.numerator) - math.log(nrm.denominator)
    total = arch_term + sum(float(c) * math.log(p) for p, c in finite.items())
    content = dict(finite)
    for q, m in prime_exponents(nrm).items():
        content[q] = content.get(q, Fraction(0)) + m
    return content, arch_term, abs(total)


def old_degree(y, ideal):
    by_prime = {}
    for v, o in ideal.entries:
        e = y.component(v).e
        coeff = Fraction(v.local_degree) / e * (-(e / v.e) * o)
        by_prime[v.prime] = by_prime.get(v.prime, Fraction(0)) + coeff
    finite = tuple((p, c) for p, c in sorted(by_prime.items()) if c != 0)
    total = sum(float(c) * math.log(p) for p, c in finite) + ideal.arch_log
    rows = [[p, c, float(c) * math.log(p)] for p, c in finite]
    return finite, total, rows


def old_height_terms(y, z):
    """(alpha, value) per finite place and the total of the height of (1 : z)."""
    terms = []
    support = dict(divisor_support(z))
    for v in sorted(support, key=place_key):
        e = y.component(v).e
        alpha = Fraction(v.local_degree) / e
        best = max(Fraction(0), -(e / v.e) * support[v])
        terms.append((alpha, float(alpha * best) * math.log(v.prime)))
    arch = y.component(archimedean_place(y.field))
    log_abs = max(0.0, math.log(abs(z.norm()).numerator) - math.log(abs(z.norm()).denominator))
    return terms, sum(t for _, t in terms) + float(arch.s) * log_abs


# ---------------------------------------------------------------------------
# inputs: random elements, some carrying a split prime whose ords cancel

@st.composite
def elements(draw):
    field = draw(st.sampled_from(FIELDS))
    coord = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
    x = field.element(draw(coord), draw(coord) if field.d else 0)
    if x.is_zero():
        x = field.one()
    if field in CANCELLING:
        x = x * draw(st.sampled_from(CANCELLING[field])) ** draw(st.integers(-2, 2))
    return x


@st.composite
def carriers(draw, field):
    y = global_frobenius(standard_arithmeticoid(field), draw(st.integers(-2, 2)))
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7)), max_size=2, unique=True)):
        v = places_over(field, p)[0]
        e = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        y = deform(y, v, local_point(v, e=e))
    if draw(st.booleans()):
        s = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        y = deform(y, archimedean_place(field), LocalPointArch(s))
    return y


@st.composite
def pairs(draw):
    x = draw(elements())
    return draw(carriers(x.field)), x


# ---------------------------------------------------------------------------
# bit-for-bit agreement

@SETTINGS
@given(elements())
@example(QI.element(Fraction(227, 55), Fraction(-132, 35)))  # 5 splits, ords +1 and -1
def test_product_formula_matches_the_inline_sum(x):
    rep = product_formula_check(x)
    finite_sums, norm_exponents, arch, residual = old_product_formula(x)
    assert rep.finite_exponent_sums == finite_sums
    assert list(rep.finite_exponent_sums) == list(finite_sums)
    assert rep.norm_exponents == norm_exponents
    assert list(rep.norm_exponents) == list(norm_exponents)
    assert _same(rep.archimedean_log, arch) and _same(rep.residual, residual)
    assert rep.exact


@SETTINGS
@given(pairs())
def test_hyperplane_pairing_matches_the_inline_sum(pair):
    y, x = pair
    rep = hyperplane_pairing(y, x)
    content, arch_term, residual = old_hyperplane(y, x)
    assert rep.content == content
    assert list(rep.content) == list(content)
    assert _same(rep.arch_log, arch_term) and _same(rep.residual, residual)
    assert rep.exact


@SETTINGS
@given(pairs(), elements(), st.sampled_from((None, 0.25, -3.5)))
def test_degree_matches_the_inline_sum(pair, other, offset):
    y, x = pair
    ideals = [ideloid_from_element(x)]
    if other.field == x.field:
        ideals.append(ideloid_from_element(x * other))
        # additive in the factors, exactly: coefficients add and moduli multiply
        forms = [arithmetic_degree(y, ideloid_from_element(t)).form for t in (x, other, x * other)]
        summed = dict(forms[0].coefficients)
        for p, c in forms[1].coefficients.items():
            summed[p] = summed.get(p, 0) + c
        assert ({p: c for p, c in summed.items() if c}
                == {p: c for p, c in forms[2].coefficients.items() if c})
        assert forms[2].modulus == forms[0].modulus * forms[1].modulus
    if offset is not None:
        ideals.append(make_ideloid(x.field, dict(ideals[0].entries),
                                   ideals[0].arch_log + offset))
    for ideal in ideals:
        rep = arithmetic_degree(y, ideal)
        finite, total, rows = old_degree(y, ideal)
        assert rep.finite == finite and _same(rep.total, total)
        new_rows = [[p, c, log_term(c, p)] for p, c in rep.finite]
        assert [r[:2] for r in new_rows] == [r[:2] for r in rows]
        assert all(_same(a[2], b[2]) for a, b in zip(new_rows, rows))
        assert rep.vanishes is (True if ideal.modulus is not None else None)


@SETTINGS
@given(pairs())
def test_height_terms_match_the_inline_alpha(pair):
    y, z = pair
    rep = scalar_height(y, z)
    terms, total = old_height_terms(y, z)
    assert [t.alpha for t in rep.finite] == [a for a, _ in terms]
    assert all(_same(t.value, value) for t, (_, value) in zip(rep.finite, terms))
    assert _same(rep.total, total)
