import cmath
import random
from fractions import Fraction

import pytest

from arithmeticoid.numfield import NumberField, archimedean_place, ord, places_over
from arithmeticoid.cohomology import (
    AdelicClass,
    ClassTransform,
    CohomologyError,
    KummerClass,
    _res_mul,
    adelic_class_from_json,
    adelic_class_to_json,
    bloch_kato_member,
    collate,
    kummer_class,
    make_adelic_class,
    tate_class,
    transform_from_json,
    uniformizer,
)

Q = NumberField.parse("Q")
QI = NumberField.parse("Q(sqrt(-1))")
Q3 = NumberField.parse("Q(sqrt(-3))")


def random_element(rng, field, bound=40):
    while True:
        a = Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
        if field.d is None:
            if a != 0:
                return field.element(a)
            continue
        b = Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
        if a != 0 or b != 0:
            return field.element(a, b)


# ---------------------------------------------------------------------------
# uniformizers

def test_uniformizer_orders():
    cases = [places_over(Q, 7)[0], places_over(QI, 5)[0], places_over(QI, 5)[1],
             places_over(QI, 3)[0], places_over(QI, 2)[0], places_over(Q3, 3)[0]]
    for v in cases:
        assert ord(uniformizer(v), v) == 1
    with pytest.raises(CohomologyError):
        uniformizer(archimedean_place(Q))


# ---------------------------------------------------------------------------
# Kummer classes

def test_prime_has_order_one_and_trivial_tag():
    v = places_over(Q, 5)[0]
    c = kummer_class(Q.element(Fraction(5)), v, 3)
    assert c.order_part == 1
    assert c.unit_tag == (1, 0)


def test_unit_class_lands_in_the_finite_part():
    v = places_over(Q, 5)[0]
    c = kummer_class(Q.element(Fraction(7, 3)), v, 2)
    assert c.order_part == 0
    assert c.is_unit_class()


def test_negative_order_reduces_mod_p_power():
    v = places_over(Q, 3)[0]
    c = kummer_class(Q.element(Fraction(1, 3)), v, 2)
    assert c.order_part == 9 - 1


def kummer_add(c1, c2):
    """Class of a product: orders add, tags multiply."""
    field = c1.place.field
    return KummerClass(
        c1.place, c1.precision,
        (c1.order_part + c2.order_part) % c1.place.prime ** c1.precision,
        _res_mul(c1.unit_tag, c2.unit_tag, field.omega_trace, field.omega_norm,
                 c1.tag_modulus),
        c1.tag_modulus,
    )


def test_kummer_is_a_homomorphism_over_q():
    rng = random.Random(67)
    for p in (2, 3, 5):
        v = places_over(Q, p)[0]
        for n in (1, 2, 3):
            for _ in range(60):
                x = random_element(rng, Q)
                y = random_element(rng, Q)
                lhs = kummer_class(x * y, v, n)
                rhs = kummer_add(kummer_class(x, v, n), kummer_class(y, v, n))
                assert lhs == rhs


def test_kummer_is_a_homomorphism_at_split_inert_ramified_places():
    rng = random.Random(71)
    places = [places_over(QI, 5)[0], places_over(QI, 5)[1],
              places_over(QI, 3)[0], places_over(QI, 2)[0],
              places_over(Q3, 3)[0], places_over(Q3, 7)[0]]
    for v in places:
        field = v.field
        for _ in range(40):
            x = random_element(rng, field)
            y = random_element(rng, field)
            lhs = kummer_class(x * y, v, 2)
            rhs = kummer_add(kummer_class(x, v, 2), kummer_class(y, v, 2))
            assert lhs == rhs


def test_tag_is_insensitive_to_teichmueller_part():
    # prime-to-p roots of unity are p^n-th powers, so they must not show up
    v = places_over(QI, 5)[0]
    i = QI.omega()
    x = QI.element(Fraction(7), Fraction(3))
    assert kummer_class(x, v, 2).unit_tag == kummer_class(x * i ** 4, v, 2).unit_tag


def test_kummer_validation():
    v = places_over(Q, 5)[0]
    with pytest.raises(CohomologyError):
        kummer_class(Q.element(0), v, 2)
    with pytest.raises(CohomologyError):
        kummer_class(Q.element(Fraction(5)), archimedean_place(Q), 2)
    with pytest.raises(CohomologyError):
        kummer_class(Q.element(Fraction(5)), v, 0)


# ---------------------------------------------------------------------------
# adelic classes

def test_tate_class_with_no_bad_places_is_trivial_except_arch():
    q = cmath.exp(2j * cmath.pi * 1j)  # tau = i
    c = tate_class(Q, {}, q)
    assert c.finite == ()
    assert abs(c.archimedean - cmath.exp(-2 * cmath.pi)) < 1e-15
    assert bloch_kato_member(c)


def test_tate_class_records_the_parameter_order():
    v = places_over(Q, 7)[0]
    c = tate_class(Q, {v: Q.element(Fraction(7 ** 5 * 3))}, 0.5 + 0j, n=3)
    k = dict(c.finite).get(v)
    assert k.order_part == 5
    assert not bloch_kato_member(c)


def test_tate_class_rejects_large_parameters():
    v = places_over(Q, 7)[0]
    with pytest.raises(CohomologyError):
        tate_class(Q, {v: Q.element(Fraction(3))}, 0.5 + 0j)  # |q|_7 = 1
    with pytest.raises(CohomologyError):
        tate_class(Q, {v: Q.element(Fraction(1, 7))}, 0.5 + 0j)
    with pytest.raises(CohomologyError):
        tate_class(Q, {}, 1 + 0j)


def test_bloch_kato_ignores_unit_tags():
    v = places_over(Q, 3)[0]
    a = make_adelic_class(Q, {v: kummer_class(Q.element(Fraction(2)), v, 2)})
    b = make_adelic_class(Q, {v: kummer_class(Q.element(Fraction(7)), v, 2)})
    assert a.finite != b.finite  # tags differ
    assert bloch_kato_member(a) and bloch_kato_member(b)


# ---------------------------------------------------------------------------
# collation

def _class_with_order(field, v, x, n=3):
    return make_adelic_class(field, {v: kummer_class(x, v, n)})


def test_collate_singleton_identity():
    v = places_over(Q, 5)[0]
    cls = _class_with_order(Q, v, Q.element(Fraction(5)))
    out = collate({"y": cls}, {"y": [ClassTransform("y", v)]})
    assert out == frozenset([cls])


def test_collate_merges_equal_classes():
    v = places_over(Q, 5)[0]
    cls = _class_with_order(Q, v, Q.element(Fraction(5)))
    out = collate({"y1": cls, "y2": cls},
                  {"y1": [ClassTransform("y1", v)],
                   "y2": [ClassTransform("y2", v)]})
    assert len(out) == 1


def test_collate_square_scalings_give_distinct_classes():
    # ell = 11, so ell* = 5 distinct squares as order scalings; the class
    # lives at a place prime to ell so every j^2 is a unit there
    ell_star = 5
    v = places_over(Q, 7)[0]
    cls = _class_with_order(Q, v, Q.element(Fraction(7)), n=3)
    classes = {f"y{j}": cls for j in range(1, ell_star + 1)}
    isos = {f"y{j}": [ClassTransform(f"y{j}", v, unit_scale=j * j)]
            for j in range(1, ell_star + 1)}
    out = collate(classes, isos)
    assert len(out) == ell_star
    orders = {dict(c.finite).get(v).order_part for c in out}
    assert orders == {1, 4, 9, 16, 25}


def test_collate_is_label_permutation_invariant():
    rng = random.Random(73)
    v2, v3 = places_over(Q, 2)[0], places_over(Q, 3)[0]
    items = []
    for idx in range(6):
        x = random_element(rng, Q)
        vv = v2 if idx % 2 else v3
        items.append((f"y{idx}", _class_with_order(Q, vv, x),
                      [ClassTransform(f"y{idx}", vv, unit_scale=1 + 2 * idx
                                      if (1 + 2 * idx) % vv.prime else 1)]))
    classes = {lab: c for lab, c, _ in items}
    isos = {lab: t for lab, _, t in items}
    out1 = collate(classes, isos)
    shuffled = items[::-1]
    out2 = collate({lab: c for lab, c, _ in shuffled},
                   {lab: t for lab, _, t in shuffled})
    assert out1 == out2
    assert len(out1) <= len(items)


def test_collate_frobenius_shift_multiplies_order_by_p():
    v = places_over(Q, 3)[0]
    cls = _class_with_order(Q, v, Q.element(Fraction(3)), n=3)
    out = collate({"y": cls}, {"y": [ClassTransform("y", v, frobenius_shift=2)]})
    (moved,) = out
    assert dict(moved.finite).get(v).order_part == 9


def test_collate_requires_every_label():
    v = places_over(Q, 5)[0]
    cls = _class_with_order(Q, v, Q.element(Fraction(5)))
    with pytest.raises(CohomologyError):
        collate({"y": cls}, {})
    with pytest.raises(CohomologyError):
        collate({"y": cls}, {"y": [ClassTransform("z", v)]})


def test_transform_validation():
    v = places_over(Q, 5)[0]
    with pytest.raises(CohomologyError):
        ClassTransform("y", v, unit_scale=10)  # divisible by 5
    with pytest.raises(CohomologyError):
        ClassTransform("y", v, frobenius_shift=-1)
    with pytest.raises(CohomologyError):
        ClassTransform("y", archimedean_place(Q))


def test_bloch_kato_stable_under_unit_only_transforms():
    v = places_over(Q, 7)[0]
    unit_cls = _class_with_order(Q, v, Q.element(Fraction(5)))  # order 0 at 7
    out = collate({"y": unit_cls}, {"y": [ClassTransform("y", v, unit_scale=3)]})
    assert all(bloch_kato_member(c) for c in out)


# ---------------------------------------------------------------------------
# serialization

def test_adelic_class_json_round_trip():
    v = places_over(QI, 2)[0]
    cls = make_adelic_class(QI, {v: kummer_class(QI.element(Fraction(1), Fraction(1)), v, 2)},
                            archimedean=0.25 + 0.125j)
    again = adelic_class_from_json(adelic_class_to_json(cls))
    assert again == cls


def test_transform_from_json_reads_every_field():
    v = places_over(Q, 3)[0]
    doc = {"label": "y7", "place": v.to_json(), "unit_scale": 2, "frobenius_shift": 1}
    assert transform_from_json(Q, doc) == ClassTransform("y7", v, unit_scale=2,
                                                         frobenius_shift=1)


def test_transform_from_json_defaults_to_the_identity_reading():
    v = places_over(QI, 5)[0]
    t = transform_from_json(QI, {"label": "y", "place": v.to_json()})
    assert t == ClassTransform("y", v, unit_scale=1, frobenius_shift=0)
    with pytest.raises(CohomologyError):
        transform_from_json(QI, {"label": "y", "place": v.to_json(), "unit_scale": 25})


def test_json_loaders_reject_places_that_do_not_exist():
    v = places_over(Q, 3)[0]
    cls_doc = adelic_class_to_json(make_adelic_class(Q, {v: kummer_class(Q.element(3), v, 2)}))
    t_doc = {"label": "y7", "place": v.to_json(), "unit_scale": 2}
    for place in ({"prime": 9, "e": 1, "f": 1, "conjugate_index": 0},
                  {"prime": 3, "e": 1, "f": 2, "conjugate_index": 0},
                  {"prime": 3, "e": 1, "f": 1, "conjugate_index": 1}):
        cls_doc["finite"][0]["place"] = place
        t_doc["place"] = place
        with pytest.raises(ValueError, match="place"):
            adelic_class_from_json(cls_doc)
        with pytest.raises(ValueError, match="place"):
            transform_from_json(Q, t_doc)


def test_archimedean_slot_must_be_nonzero():
    with pytest.raises(CohomologyError):
        AdelicClass(Q, (), 0j)
