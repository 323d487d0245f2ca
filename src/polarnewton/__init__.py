"""Newton polygons, degeneracy loci and topology of general polar curves of
plane branches of genus one and two, with an exact-arithmetic kernel, a
numeric Newton-Puiseux oracle, and a seeded verification harness."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    A,
    B,
    MPoly,
    UPoly,
    Var,
    X,
    Y,
    Z,
    avar,
    bvar,
    discriminant,
    strip_content,
)
from .cfrac import ContinuedFraction, continued_fraction, convergents  # noqa: F401
from .curves import (  # noqa: F401
    Family,
    ParseError,
    PlaneSeries,
    PolarParams,
    generic_member_g1,
    generic_member_g2,
    parse_series,
    polar,
    substitute,
)
from .genus1 import DegeneracyLocus, PolarModel, min_x_exponent, polar_model_g1  # noqa: F401
from .genus2 import (  # noqa: F401
    Classification,
    InvalidSemigroupError,
    classify_nondegenerate,
    polar_model_g2,
    tail_min_x_exponent,
)
from .newton import (  # noqa: F401
    BranchClass,
    NewtonPolygon,
    Side,
    TopologyReport,
    is_nondegenerate,
    newton_polygon,
    oka_decomposition,
)
from .puiseux import (  # noqa: F401
    InsufficientDepthError,
    PuiseuxBranch,
    intersection_numeric,
    puiseux_expand,
    semigroup_from_char,
)
from .verify import SampleConfig, run_power_degeneracy, run_verification  # noqa: F401
