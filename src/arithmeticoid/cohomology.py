"""Kummer-theoretic cohomology classes at finite places, and their collation.

A nonzero x determines, at each finite v and precision n, the pair (valuation
mod p^n, unit tag).  The tag is the residue of x / pi^ord raised to the power
(p^f - 1) (doubled at p = 2) modulo p^{n + 1} (n + 2 at p = 2): a canonical
multiplicative invariant that kills the prime-to-p torsion of the unit group.
At ramified places the tag can be strictly finer than the quotient by p^n-th
powers; collation treats classes as equal only on exact data, so the finer tag
only ever under-merges, which is the safe direction for a union bound.

An adelic class is a finite collection of Kummer classes plus a slot in the
archimedean Ext group, treated as a bare element of C*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numfield import (
    FieldElement,
    NumberField,
    Place,
    _hensel_root,
    _int_valuation,
    ord as ord_at,
    place_from_json,
    place_key,
    power,
)

__all__ = [
    "CohomologyError",
    "KummerClass",
    "AdelicClass",
    "ClassTransform",
    "kummer_class",
    "make_adelic_class",
    "tate_class",
    "bloch_kato_member",
    "collate",
    "uniformizer",
    "adelic_class_to_json",
    "adelic_class_from_json",
    "transform_from_json",
]


class CohomologyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# residue arithmetic mod p^N in the ring of integers

def _res_mul(x, y, trace: int, norm: int, mod: int):
    a, b = x
    c, d = y
    return ((a * c - b * d * norm) % mod,
            (a * d + b * c + b * d * trace) % mod)


def uniformizer(v: Place) -> FieldElement:
    """An element of order exactly 1 at v (order 1 at the conjugate too when split)."""
    if v.is_archimedean:
        raise CohomologyError("no uniformizer at the archimedean place")
    field = v.field
    if v.e == 1:
        return field.element(v.prime)
    d = field.d
    if v.prime == 2:
        if d % 4 == 1:
            return field.element(1, 1)  # 1 + omega
        return field.omega()            # d even
    if d % 4 == 3:
        return field.element(-1, 2)     # sqrt(-d)
    return field.omega()


def _unit_residue(u: FieldElement, v: Place, exponent: int):
    """Residue pair of a v-unit in (O / p^exponent), embedded at split places:
    (A + B*omega)/D with p^ord_p(D) divided out of the numerator and D."""
    p = v.prime
    mod = p ** exponent
    A, B, D = u.A, u.B, u.D
    k = _int_valuation(D, p)
    if u.field.d is not None and v.e == 1 and v.f == 1:
        # split: push through the completion picked by the conjugate index
        A, B = A + B * _hensel_root(u.field, p, v.conjugate_index, exponent + k + 2), 0
    q = p ** k
    if A % q or B % q:
        raise CohomologyError("residue of a non-integral element")
    inv = pow(D // q, -1, mod)
    return (A // q * inv % mod, B // q * inv % mod), mod


# ---------------------------------------------------------------------------
# Kummer classes

@dataclass(frozen=True)
class KummerClass:
    """Image of a local element in the p^n-level multiplicative filtration."""

    place: Place
    precision: int
    order_part: int       # ord_v(x) reduced mod p^n
    unit_tag: tuple       # residue pair, canonical power of x / pi^ord
    tag_modulus: int

    def __post_init__(self):
        if self.place.is_archimedean:
            raise CohomologyError("Kummer classes live at finite places")
        if self.precision < 1:
            raise CohomologyError("precision must be >= 1")

    def is_unit_class(self) -> bool:
        return self.order_part == 0


def _tag_exponent(v: Place) -> tuple:
    # power killing prime-to-p torsion, and the modulus exponent it lives at
    p = v.prime
    power = (p ** v.f - 1) * (2 if p == 2 else 1)
    return power, (2 if p == 2 else 1)


def kummer_class(x: FieldElement, v: Place, n: int) -> KummerClass:
    """(ord mod p^n, canonical unit tag) of x at v."""
    if x.is_zero():
        raise CohomologyError("0 has no Kummer class")
    if v.is_archimedean:
        raise CohomologyError("Kummer classes live at finite places")
    if n < 1:
        raise CohomologyError("precision must be >= 1")
    p = v.prime
    o = ord_at(x, v)
    u = x * uniformizer(v) ** (-o)
    exponent, extra = _tag_exponent(v)
    res, mod = _unit_residue(u, v, n + extra)
    t, nm = x.field.omega_trace, x.field.omega_norm
    tag = power(res, exponent, lambda a, b: _res_mul(a, b, t, nm, mod), (1 % mod, 0))
    return KummerClass(v, n, o % p ** n, tag, mod)


# ---------------------------------------------------------------------------
# adelic classes

@dataclass(frozen=True)
class AdelicClass:
    """Finitely many Kummer classes plus the archimedean Ext slot in C*."""

    field: NumberField
    finite: tuple = ()        # ((Place, KummerClass), ...) canonically sorted
    archimedean: complex = 1 + 0j

    def __post_init__(self):
        if self.archimedean == 0:
            raise CohomologyError("archimedean slot lives in C*")
        for v, c in self.finite:
            if v.field != self.field or c.place != v:
                raise CohomologyError("misplaced Kummer class")


def make_adelic_class(field: NumberField, classes: dict | None = None,
                      archimedean: complex = 1 + 0j) -> AdelicClass:
    entries = tuple(sorted(((c.place, c) for c in (classes or {}).values()),
                           key=lambda t: place_key(t[0])))
    return AdelicClass(field, entries, archimedean)


def tate_class(field: NumberField, semistable: dict,
               schottky_arch: complex, n: int = 3) -> AdelicClass:
    """Class of a curve with the given Tate parameters at its bad places.

    semistable maps each semistable place to its parameter, a field element of
    strictly positive order there; everywhere else the class is trivial.  The
    archimedean slot stores the Schottky parameter, |q| < 1.
    """
    if abs(schottky_arch) >= 1:
        raise CohomologyError("archimedean parameter must satisfy |q| < 1")
    classes = {}
    for v, q in semistable.items():
        if ord_at(q, v) <= 0:
            raise CohomologyError(f"Tate parameter at {v} must satisfy |q| < 1")
        classes[v] = kummer_class(q, v, n)
    return make_adelic_class(field, classes, schottky_arch)


def bloch_kato_member(c: AdelicClass) -> bool:
    """Integral Fontaine subspace test: every finite order part vanishes."""
    return all(k.is_unit_class() for _, k in c.finite)


# ---------------------------------------------------------------------------
# collation

@dataclass(frozen=True)
class ClassTransform:
    """Reads one arithmeticoid's classes in the standard one: order parts are
    scaled by a p-adic unit and by p^shift; unit tags ride along unchanged."""

    label: str
    place: Place
    unit_scale: int = 1
    frobenius_shift: int = 0

    def __post_init__(self):
        if self.place.is_archimedean:
            raise CohomologyError("transforms act at finite places")
        if self.unit_scale % self.place.prime == 0:
            raise CohomologyError("order scale must be a p-adic unit")
        if self.frobenius_shift < 0:
            raise CohomologyError("division by p is not defined at finite level")


def _apply_transforms(cls: AdelicClass, transforms) -> AdelicClass:
    by_place = {t.place: t for t in transforms}
    entries = []
    for v, k in cls.finite:
        t = by_place.get(v)
        if t is None:
            entries.append((v, k))
            continue
        p = v.prime
        scale = t.unit_scale * p ** t.frobenius_shift
        moved = KummerClass(v, k.precision,
                            (k.order_part * scale) % p ** k.precision,
                            k.unit_tag, k.tag_modulus)
        entries.append((v, moved))
    return AdelicClass(cls.field, tuple(entries), cls.archimedean)


def collate(classes: dict, isos: dict) -> frozenset:
    """Union of each labeled class pushed through its transform family.

    isos maps every label to an iterable of ClassTransform entries (one per
    place it moves; unlisted places ride along unchanged).  The result keeps
    set semantics: classes merge only on exact equality of all stored data.
    This realizes a finite, explicitly chosen family of identifications, a
    strict under-approximation of "all isomorphisms".
    """
    out = set()
    for label, cls in classes.items():
        if label not in isos:
            raise CohomologyError(f"no transform family for label {label!r}")
        transforms = tuple(isos[label])
        for t in transforms:
            if t.label != label:
                raise CohomologyError(f"transform for {t.label!r} filed under {label!r}")
        out.add(_apply_transforms(cls, transforms))
    return frozenset(out)


# ---------------------------------------------------------------------------
# serialization

def _kummer_to_json(k: KummerClass) -> dict:
    return {
        "place": k.place.to_json(),
        "precision": k.precision,
        "order_part": k.order_part,
        "unit_tag": list(k.unit_tag),
        "tag_modulus": k.tag_modulus,
    }


def adelic_class_to_json(c: AdelicClass) -> dict:
    return {
        "field": str(c.field),
        "finite": [_kummer_to_json(k) for _, k in c.finite],
        "archimedean": [c.archimedean.real, c.archimedean.imag],
    }


def adelic_class_from_json(data: dict) -> AdelicClass:
    field = NumberField.parse(data["field"])
    classes = {}
    for entry in data["finite"]:
        v = place_from_json(field, entry["place"])
        classes[v] = KummerClass(v, entry["precision"], entry["order_part"],
                                 tuple(entry["unit_tag"]), entry["tag_modulus"])
    arch = data["archimedean"]
    if not isinstance(arch, (list, tuple)) or len(arch) != 2:
        raise CohomologyError(f"archimedean slot must be a [re, im] pair, got {arch!r}")
    return make_adelic_class(field, classes, complex(*arch))


def transform_from_json(field: NumberField, data: dict) -> ClassTransform:
    return ClassTransform(
        label=data["label"],
        place=place_from_json(field, data["place"]),
        unit_scale=data.get("unit_scale", 1),
        frobenius_shift=data.get("frobenius_shift", 0),
    )
