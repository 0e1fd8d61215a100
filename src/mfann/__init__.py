"""Exact annihilator computations for matrix factorizations over
hypersurface rings, with truncated-algebra certification and Alexandrov
compactness verdicts for countable module families."""

from .fields import FieldError, PrimeField, Rationals, default_field, parse_field_flag
from .poly import Polynomial, parse_poly
from .truncation import RingSpec, SpecError, TruncatedAlgebra, build_truncation
from .ideals import (
    IdealSpec,
    ParametricIdealFamily,
    extract_generators,
    is_m_primary,
    limit_of_chain,
    member,
    truncate_ideal,
)
from .mf import (
    CatalogError,
    MatrixFactorization,
    catalog,
    catalog_labels,
    direct_sum,
    knoerrer_double,
    parse_selector,
    ring_spec,
    swap,
    validate,
)
from .annihilator import (
    AnnihilatorResult,
    Witness,
    annihilate,
    annihilator_truncated,
    membership_truncated,
    row_col_bound,
    witness_search,
)
from .alexandrov import (
    AnnFamily,
    AlexandrovVerdict,
    build_preorder,
    compactness_verdict,
)
from .families import EXPECTED_VERDICTS, build_family

__version__ = "0.1.0"
