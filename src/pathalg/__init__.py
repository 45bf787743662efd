"""Path-algebra computations: quivers, noncommutative Groebner bases, overlap
chains, resolution degree windows, and an exact linear-algebra oracle."""

from .algebra import (
    AlgebraElement,
    GroebnerBasis,
    ModuleElement,
    groebner_basis,
    monic,
    normal_form,
    tip,
)
from .errors import (
    CompositionError,
    InfiniteCollectionError,
    NotReducedError,
    PathAlgError,
    TruncatedBasisError,
)
from .fields import Field, RATIONALS
from .koszul import (
    DegreeCollection,
    collection_tensor,
    determined_check,
    s_koszul_criterion,
    s_koszul_degree,
)
from .oracle import (
    GradedAlgebraModel,
    ResolutionReport,
    build_model,
    minimal_resolution,
    verify_windows,
)
from .order import OrderSpec
from .overlaps import OverlapTable, compose_bounds, enumerate_overlaps
from .presentation import Generator, ModulePresentation
from .quiver import (
    Arrow,
    Path,
    Quiver,
    compose,
    divides,
    is_reduced,
)
from .syzygy import (
    DegreeWindow,
    FirstSyzygy,
    degree_window,
    first_syzygy,
    window_consistency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
