"""Adelic arithmeticoids: deformed local points on arithmetic curves and their heights.

The central names re-exported here cover the everyday workflow: build a number
field, pick a carrier of local points, deform or twist it, and measure.
Importing the package loads numfield, adelic, ffcurve, tilt, heights and
padic, which need only the standard library; cohomology, szpiro and cli wait
for their own module imports.  numpy waits longer still: szpiro loads it on
its first cover-height evaluation.
"""

from .numfield import (
    FieldElement,
    NumberField,
    Place,
    archimedean_place,
    places_over,
    places_up_to,
    product_formula_check,
    roots_of_unity,
)
from .adelic import (
    Arithmeticoid,
    deform,
    distance,
    global_frobenius,
    lstar_act,
    make_arithmeticoid,
    normalization_coordinate,
    period_map,
    stabilizer_check,
    standard_arithmeticoid,
)
from .heights import (
    Frobenioid,
    arithmetic_degree,
    scalar_height,
)

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "NumberField",
    "Place",
    "archimedean_place",
    "places_over",
    "places_up_to",
    "product_formula_check",
    "roots_of_unity",
    "Arithmeticoid",
    "deform",
    "distance",
    "global_frobenius",
    "lstar_act",
    "make_arithmeticoid",
    "normalization_coordinate",
    "period_map",
    "stabilizer_check",
    "standard_arithmeticoid",
    "Frobenioid",
    "arithmetic_degree",
    "scalar_height",
    "__version__",
]
