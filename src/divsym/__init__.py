"""Divergence-preserving truncation toolkit for symmetric fields on the 3-torus."""

from types import ModuleType as _ModuleType

from .fields import (
    TrigSymField,
    PreconditionError,
    UnsupportedOrderError,
    potential_inverse,
    random_field,
    field_to_dict,
    field_from_dict,
)
from .maximal import ScalarGrid, OpenSetMask, sample_abs, maximal_function, bad_set, zhang_bound_check
from .whitney import WhitneyCover, whitney_decompose
from .truncation import TruncationContext, build_context, truncate, divergence_defects, verify
from .potential_trunc import potential_bad_set, stability_comparison
from .envelope import CompactSetDescriptor, qsdqc_estimate, hull_membership

__all__ = [name for name, obj in dict(globals()).items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
