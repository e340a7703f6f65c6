"""Lyapunov exponents, periodic spectra and zero-exponent candidate sets for
the SL(2,R) transfer cocycle of quantum graphs indexed by a subshift of
finite type."""

from .cocycle import (
    IDENTITY,
    INFINITY,
    Mat2,
    ProjectivePoint,
    ScaledMat2,
    a_matrix,
    canonical_cos,
    cocycle_product,
    eigendirections,
    mat_inv,
    mat_mul,
    mobius,
    projective,
    scaled_from,
    scaled_mul,
    solve_difference,
    stable_holonomy,
    unstable_holonomy,
)
from .errors import (
    EmptySubshift,
    NotInStableSet,
    NotInUnstableSet,
    NotStochastic,
    NotTransitive,
    ParabolicOrCentral,
    ParseError,
    RangeMismatch,
    SftlabError,
    SingularEnergy,
    SupportViolation,
    UnknownSubcommand,
)
from .graph_model import EdgeSolution, VertexData, edge_derivatives, kirchhoff_residual, verify_corollary
from .lyapunov import (
    LyapunovEstimate,
    McParams,
    ZeroSetHit,
    in_exclusion_window,
    kalinin_profile,
    lyapunov_mc,
    lyapunov_mc_grid,
    lyapunov_periodic,
    zero_set_scan,
)
from .measure import MarkovMeasure, cylinder_probability, sample_window, stationary_markov
from .sft import (
    MetricValue,
    PeriodicPoint,
    SubshiftSpec,
    Word,
    enumerate_periodic_points,
    is_admissible,
    metric,
    shift,
    validate_spec,
)
from .spectra import (
    BandSet,
    band_set,
    exceptional_candidates,
    gaps,
    h_tilde_bands,
    intersect,
    monodromy_trace,
)

__version__ = "0.1.0"
