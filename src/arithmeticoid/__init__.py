"""Adelic arithmeticoids: deformed local points on arithmetic curves and their heights.

The central names re-exported here cover the everyday workflow: build a number
field, pick a carrier of local points, deform or twist it, and measure.
Importing the package loads none of its modules: each name below loads its
module on first access (PEP 562), so ``from arithmeticoid import distance``
loads numfield, ffcurve and adelic, and nothing else.  numpy waits longer
still: szpiro loads it on its first cover-height evaluation.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "numfield": ("FieldElement", "NumberField", "Place", "archimedean_place", "places_over",
                 "places_up_to", "product_formula_check", "roots_of_unity"),
    "adelic": ("Arithmeticoid", "deform", "distance", "global_frobenius", "lstar_act",
               "make_arithmeticoid", "normalization_coordinate", "period_map",
               "stabilizer_check", "standard_arithmeticoid"),
    "heights": ("Frobenioid", "arithmetic_degree", "scalar_height"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        # also how ``from arithmeticoid import tilt`` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
