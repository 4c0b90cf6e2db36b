"""Exact arithmetic and decision procedures for the structure of the
integers with the golden-ratio Beatty map f(x) = floor(phi * x).

Each public name is imported from its home module on first access (PEP 562),
so that `import beatty.cli` loads only the modules its commands import."""

__version__ = "0.1.0"

_HOMES = {
    "congruence": "Congruence CongruenceSystem SolveOutcome crt_combine solve_image solve_system",
    "golden": "additivity_defect decompose f_floor f_inverse f_zeck linear_defect phi_ceil "
              "phi_floor phi_mul phi_norm phi_sign",
    "logic": "Decision axiom_audit decide decide_existential_nf evaluate format_formula parse "
             "to_normal_form",
    "numeration": "c fib fib_word_prefix pisano unzeckendorf zeckendorf",
    "windows": "LinearConstraint WindowSet axiom_v_check convergent_d convergent_u locate_slope "
               "solution_window",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = [*_HOME, *_HOMES]  # `import *` also binds the five modules, as when all were imported


def __getattr__(name: str):
    if name not in _HOME:  # a submodule not imported yet: `from beatty import cli` imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
