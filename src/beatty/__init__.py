"""Exact arithmetic and decision procedures for the structure of the
integers with the golden-ratio Beatty map f(x) = floor(phi * x)."""

from .congruence import (
    Congruence,
    CongruenceSystem,
    SolveOutcome,
    crt_combine,
    solve_image,
    solve_system,
)
from .golden import (
    additivity_defect,
    decompose,
    f_floor,
    f_inverse,
    f_zeck,
    linear_defect,
    phi_ceil,
    phi_floor,
    phi_sign,
)
from .logic import (
    Decision,
    axiom_audit,
    decide,
    decide_existential_nf,
    evaluate,
    format_formula,
    parse,
    to_normal_form,
)
from .numeration import c, fib, fib_word_prefix, pisano, unzeckendorf, zeckendorf
from .windows import (
    LinearConstraint,
    WindowSet,
    axiom_v_check,
    convergent_d,
    convergent_u,
    locate_slope,
    solution_window,
)

__version__ = "0.1.0"
