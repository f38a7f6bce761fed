"""Exact-arithmetic pencils of affine conics and bisector fields.

Works over the rationals and over odd prime fields GF(p).  Quadratics are
classified field-relatively (hyperbola / parabola / ellipse by points at
infinity), factored over the ground field, and assembled into pencils whose
reducible members form asymptotic pencils.  Every nontrivial asymptotic
pencil is a bisector field (a maximal nontrivial bisector arrangement); the
converse fails, as the oracle's exhaustive GF(3) search for ``thm-6.3``
shows.  A brute-force oracle machine-checks the whole story over small
Galois fields.
"""

from .field import (
    FieldSpec,
    FieldError,
    FieldMismatchError,
    GF,
    InfiniteFieldError,
    Scalar,
    halve,
    is_square,
    parse_fieldspec,
    rationals,
    square_root,
)
from .geometry import (
    AffineMap,
    COINCIDENT,
    GeometryError,
    Line,
    MID_INFINITE,
    MID_UNDETERMINED,
    Midpoint,
    ProjectivePoint,
    intersect,
    map_line_to_y0,
    midline,
    midpoint_on_line,
)
from .conic import (
    ConicClass,
    ConicError,
    CROSSING,
    DOUBLE,
    Degenerations,
    ELLIPSE,
    HYPERBOLA,
    LinePair,
    MEETS_NO_CROSS,
    MidResult,
    NO_MEET,
    PARABOLA,
    PARALLEL,
    ParallelFamily,
    Quadratic,
    center,
    classify,
    degenerations,
    is_reducible,
    mid,
    meets,
    pairs_are_translates,
    points_at_infinity,
    pullback,
    restrict_to_line,
)
from .pencil import (
    AsymptoticPencil,
    DegeneracyCubic,
    NetCoords,
    Pencil,
    PencilError,
    TrivialPencilError,
    are_independent,
    degeneracy_cubic,
    find_hyperbolas,
    net_contains,
    net_member,
    nets_equal,
)
from .quad import (
    Quadrilateral,
    QuadrilateralError,
    bisects_quadrilateral,
    pencil_of,
    quadrilateral_of,
    validate,
    vertices,
)
from .bisector import (
    ArrangementReport,
    BasepointError,
    BisectorError,
    BisectorField,
    InsufficientDataError,
    Involution,
    bisector_field_of,
    bisects_set,
    classify_trivial_arrangement,
    desargues_involution,
    is_bisector_arrangement,
    pair_through_line,
)

__version__ = "0.1.0"

# The oracle is loaded on first use of one of its names (PEP 562), so that
# importing the package or running a CLI command other than ``check`` does
# not load it.
_ORACLE_NAMES = frozenset((
    "CHECK_IDS",
    "Policy",
    "Report",
    "enumerate_lines",
    "exhaustive_maximal_arrangements",
    "run_check",
))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
