"""Exact Poincare series, free-module bases and generator catalogs for the
spaces of commuting elements in the classical Lie groups U(n), SU(n), Sp(n),
cross-checked against independent brute-force and conjugacy-class oracles.

The names in ``__all__`` are loaded from their defining modules on first
access, so ``import comlie`` loads none of the math modules.
"""

__version__ = "0.1.0"

#: Defining module of each exported name.
_EXPORTS = {
    "CycleData": "weylcomb",
    "GeneratorCatalog": "poincare",
    "GroupSizeError": "weylcomb",
    "GroupSpec": "poincare",
    "Permutation": "weylcomb",
    "QPoly": "qseries",
    "RationalSeries": "qseries",
    "SignedPermutation": "weylcomb",
    "TruncatedSeries": "qseries",
    "bcom_series": "poincare",
    "bg_series": "poincare",
    "ecom_numerator": "poincare",
    "elements": "weylcomb",
    "generator_catalog": "poincare",
    "group_order": "weylcomb",
    "oracle_bcom": "coinvariants",
    "oracle_ecom": "coinvariants",
    "product_series": "qseries",
    "stable_bcom": "poincare",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # The value is looked up in its module on every access and never stored
    # here, so a function patched in its defining module (as the benchmark's
    # span wrappers do) is what the package returns too.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
