"""Exact workbench for separability of finite-degree field extensions."""

from .basefields import FieldElement, PrimeField, RatFunc, RationalFunctionField
from .errors import (CapabilityError, ContextTooSmallError, FieldMismatchError,
                     FieldSepError, HeightBoundExceeded, InputError,
                     PropertyViolation, ReducibleError)
from .factor import (Factorization, SeparableDecomposition, distinct_root_count,
                     element_pth_root, factor, is_irreducible, roots_in,
                     separable_decompose)
from .parse import make_extension
from .poly import Poly, poly_gcd
from .towers import (ExtensionField, Subfield, base_subfield, flatten,
                     full_subfield, lift, lift_poly, minimal_polynomial,
                     poly_eval, unflatten)

__all__ = [name for name in dir() if not name.startswith("_")]
