"""Exact computations with quantale-enriched generalized spaces.

The package builds finite quantale-valued relational structures, decides
compactness, Hausdorff separation, separatedness and exponentiability,
computes class-generated coreflections and function spaces, and manipulates
quasi-space structures over a fixed generating class.  All arithmetic is
exact: rationals plus a distinguished infinity, no floating point.
"""

from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    ParseError,
    PreconditionError,
    QuantaleMismatchError,
    StructuralError,
    TvsError,
    UnsupportedOperationError,
)
from .quantale import (
    INF,
    Value,
    bool2,
    chain,
    cost_max,
    cost_plus,
    finite_table,
    generated_values,
    lukasiewicz_grid,
    validate_quantale,
)
from .validation import ValidationReport
from .vrel import (
    Carrier,
    MapArrow,
    VRel,
    compose,
    from_map,
    identity_rel,
    rel_join,
    rel_leq,
    rel_meet,
    reflexive_transitive_closure,
    transpose,
)
from .monad import (
    finite_ultrafilter_monad,
    identity_monad,
    monad_by_name,
)
from .space import (
    Space,
    coproduct,
    discrete_space,
    exponential,
    exponentiability_witness,
    final_structure,
    indiscrete_space,
    initial_structure,
    is_compact,
    is_continuous,
    is_exponentiable,
    is_fully_faithful,
    is_hausdorff,
    is_separated,
    map_order_leq,
    product,
    sierpinski_space,
    subspace,
    validate_space,
)
from .generation import (
    ProbeClass,
    alexandroff_expansion,
    c_generated_structure,
    cmap_space,
    is_alexandroff,
    is_c_continuous,
    is_c_generated,
    specialization,
    transpose_cmap,
    untranspose_cmap,
)
from .quasi import (
    QuasiSpace,
    associated_quasi,
    discrete_quasi,
    exponential_quasi,
    indiscrete_quasi,
    initial_quasi,
    is_quasi_continuous,
    product_quasi,
    quotient_quasi,
    reflect_to_cgenerated,
    subspace_quasi,
    validate_quasi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
