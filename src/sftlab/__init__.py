"""Lyapunov exponents, periodic spectra and zero-exponent candidate sets for
the SL(2,R) transfer cocycle of quantum graphs indexed by a subshift of
finite type."""

from .cocycle import (
    Mat2,
    ScaledMat2,
    a_matrix,
    canonical_cos,
    cocycle_product,
    mat_mul,
    scaled_from,
    scaled_mul,
    solve_difference,
)
from .errors import (
    EmptySubshift,
    NotStochastic,
    NotTransitive,
    ParseError,
    SftlabError,
    SingularEnergy,
    SupportViolation,
    UnknownSubcommand,
)
from .graph_model import EdgeSolution, VertexData, kirchhoff_residual, verify_corollary
from .lyapunov import (
    LyapunovEstimate,
    in_exclusion_window,
    kalinin_profile,
    lyapunov_mc,
    lyapunov_mc_grid,
    lyapunov_periodic,
)
from .measure import MarkovMeasure, sample_window, stationary_markov
from .sft import (
    PeriodicPoint,
    SubshiftSpec,
    Word,
    enumerate_periodic_points,
    shift,
    validate_spec,
)
from .spectra import (
    BandSet,
    band_set,
    exceptional_candidates,
    gaps,
    intersect,
    monodromy_trace,
)

__version__ = "0.1.0"
