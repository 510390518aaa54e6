"""Exact characteristic-class identity checking and conductor arithmetic.

The names of ``__all__`` are exported lazily (PEP 562): each is imported from
its module on first access, by the module ``__getattr__``, and then kept in the
package's namespace.  So ``import charcalc``, which every import of one of its
modules runs first, imports none of them, and each command of the CLI imports
only the modules it runs.
"""

import sys
from importlib import import_module
from types import ModuleType

# The module of each export, by the names it exports.
_HOMES = {
    "series": ("GradedSeries", "MismatchError"),
    "lambda_ring": ("KElement", "TSeries", "alternating_lambda_sum", "ch", "chern_k", "gamma_k",
                    "gamma_t", "lambda_t", "todd", "total_chern"),
    "verify": ("CheckResult", "generic_lines", "repeated_root_lines", "verify_borel_serre",
               "verify_ch_gamma", "verify_gala", "verify_hom_laws", "verify_prop_chtd"),
    "conductor": ("ArithmeticModel", "Component", "ConductorReport", "ConsistencyError",
                  "FiberModel", "ModelValidationError", "Stratum", "TamenessError", "bloch_degree",
                  "closed_strata_from_open", "conductor", "fiber_euler", "generic_euler_check",
                  "normalize_fiber", "open_strata_from_closed", "tame_check"),
    "modelfile": ("ModelParseError", "load_model", "parse_model"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "ArithmeticModel",
    "CheckResult",
    "Component",
    "ConductorReport",
    "ConsistencyError",
    "FiberModel",
    "GradedSeries",
    "KElement",
    "MismatchError",
    "ModelParseError",
    "ModelValidationError",
    "Stratum",
    "TSeries",
    "TamenessError",
    "alternating_lambda_sum",
    "bloch_degree",
    "ch",
    "chern_k",
    "closed_strata_from_open",
    "conductor",
    "fiber_euler",
    "gamma_k",
    "gamma_t",
    "generic_euler_check",
    "generic_lines",
    "lambda_t",
    "load_model",
    "normalize_fiber",
    "open_strata_from_closed",
    "parse_model",
    "repeated_root_lines",
    "tame_check",
    "todd",
    "total_chern",
    "verify_borel_serre",
    "verify_ch_gamma",
    "verify_gala",
    "verify_hom_laws",
    "verify_prop_chtd",
]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package's module type.  Importing a module of the package binds it
    as an attribute of the package; the module ``conductor`` would so hide the
    export ``conductor``, the function, which is kept in its place."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def render_sum(texts) -> str:
    """Join signed term texts as ``a + b - c``; ``0`` when there are none.  Both the
    series and the conductor report render sums, so it lives with neither."""
    out = ""
    for text in texts:
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out or "0"
