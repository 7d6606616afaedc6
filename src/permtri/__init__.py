"""Permutation trinomials over F_{2^n}: verification, inversion, search.

The package implements six families of permutation trinomials together
with exact binary-field arithmetic, an exhaustive bijection checker, a
GF(2) linearized-equation solver, per-family preimage algorithms, and a
command-line front end (``permtri``).
"""

from .field import (
    DEFAULT_MODULI,
    FieldElement,
    FieldError,
    FieldMismatchError,
    FieldSpec,
    NoCubeRootError,
    NonDivisorError,
    NonInvertibleDenominatorError,
    ZeroBaseError,
    ZeroInverseError,
    cube_root_of_unity,
    default_spec,
    fractional_power,
    irreducibles,
    is_irreducible,
    smallest_irreducible,
)
from .linalg2 import (
    AffineSolutionSet,
    BitMatrix,
    LinearizedPoly,
    kernel,
    matrix_of,
    solve_affine,
)
from .families import (
    ConditionViolatedError,
    DegreeMismatchError,
    FamilyId,
    FamilyInstance,
    FamilyParams,
    check_gcd_identities,
    enumerate_instances,
    enumerate_params,
    evaluate,
    instantiate,
    value_table,
)
from .permcheck import (
    BudgetExceededError,
    InverseTable,
    NotAPermutationError,
    PermutationReport,
    check,
    cycle_structure,
    inverse_table,
    quick_reject,
)
from .inverter import (
    InternalContradictionError,
    InversionError,
    InversionTrace,
    NoValidCandidateError,
    Zeta1ZeroError,
    invert,
)

__version__ = "0.1.0"
