"""Path-algebra computations: quivers, noncommutative Groebner bases, overlap
chains, resolution degree windows, and an exact linear-algebra oracle."""

from .algebra import (
    AlgebraElement,
    GroebnerBasis,
    ModuleElement,
    groebner_basis,
    module_normal_form,
    monic,
    normal_form,
    normal_words,
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
    ideal_membership,
    minimal_resolution,
    module_hilbert,
    verify_windows,
)
from .order import EQ, GT, LT, OrderSpec, check_admissible, compare, compare_module
from .overlaps import (
    OverlapTable,
    Partition,
    all_partitions,
    check_partition,
    compose_bounds,
    enumerate_overlaps,
    find_partition,
    tail_first_hit_at_end,
    tail_is_pattern_free,
)
from .presentation import Generator, ModulePresentation
from .quiver import (
    Arrow,
    Path,
    Quiver,
    compose,
    divides,
    divides_left,
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
