"""qcvx: level-set calculus for quasi-concave functions.

Convex bodies with exact Minkowski arithmetic, mixed volumes and mixed
integrals, symmetric decreasing and size-functional rearrangements, and a
numerical harness that checks the associated Brunn-Minkowski / Alexandrov /
isoperimetric inequalities at desk scale.
"""

from .bodies import (
    ConvexBody,
    approx_equal,
    body_from_json,
    body_to_json,
    contains,
    inradius,
    minkowski_sum,
    polar,
    scale,
    support,
    volume,
)
from .checks import run_all, run_check, summarize
from .duality import GeomConvexFn, star_dual
from .grids import GridSpec, SampledField
from .mixed_volumes import (
    MinkowskiPolynomial,
    minkowski_polynomial,
    mixed_volume,
    quermassintegral_body,
    surface_area_body,
)
from .profiles import (
    GaussianProfile,
    PowerLawProfile,
    StretchedExponentialProfile,
    TableProfile,
    exponential_profile,
)
from .qc import (
    LevelStack,
    QCFunction,
    RadialQC,
    SumQC,
    epsilon_extension,
    evaluate,
    fn_from_json,
    fn_to_json,
    generalized_surface_area,
    grid_sup_min,
    indicator,
    integral,
    level_set,
    minkowski_polynomial_fn,
    mixed_integral,
    odot,
    oplus,
    quermassintegral_fn,
    supmin_bracket,
    surface_area_fn,
)
from .rearrange import SizeFunctional, ball_rearrange, phi_rearrange, sdr
from .report import CheckReport
from .reshape import (
    ParabolicCapQC,
    dilate_to_exponential,
    phi_profile,
    rescale_to_match,
    rescaled_af,
    rescaled_bm,
)

__version__ = "0.1.0"
