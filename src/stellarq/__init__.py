"""stellarq: double homodyne simulation and non-Gaussian state certification.

A truncated-Fock-space toolkit that simulates balanced and unbalanced
double homodyne detection by sampling the Husimi Q function, estimates
expectation values of bounded-support operators from the samples with
rigorous finite-sample confidence intervals, ranks states in the stellar
hierarchy through fidelity witnesses, and certifies Wigner negativity
with displaced-parity witnesses.
"""

__version__ = "0.1.0"

from .errors import (
    CutoffError,
    DomainError,
    InfeasiblePrecisionError,
    InsufficientSamplesError,
    OptimizerError,
    StellarQError,
    UndefinedSubtractionError,
    UnsupportedTargetError,
    UsageError,
)
from .fockspace import (
    CoreState,
    GaussianUnitaryParams,
    TargetOperator,
    TruncatedState,
    apply_gaussian,
    db_to_r,
    fidelity,
    gaussian_matrix,
    husimi_q,
    make_fock,
    make_lossy_fock,
    make_squeezed_thermal,
    make_thermal,
    photon_add,
    photon_subtract,
    wigner,
)
from .dhd import (
    SampleBatch,
    load_csv,
    sample_q,
    sample_unbalanced,
    save_csv,
    translate_samples,
)
from .estimator import (
    ConfidenceEstimate,
    EstimatorConfig,
    OptimizeResult,
    achieved_delta,
    bias_bound,
    clt_required_samples,
    estimate,
    kernel_range,
    kernel_values,
    optimize_params,
    pn_threshold,
    required_samples,
)
from .stellar import (
    ProfilePoint,
    StellarPoly,
    fidelity_profile,
    max_fidelity_rank_bounded,
    rank1_core_profile,
    rank_witness_verdict,
    stellar_add,
    stellar_subtract,
)
from .negativity import (
    WitnessResult,
    choose_witness_params,
    estimate_omega,
    omega_true,
    witness_operator,
    witness_scan,
)
from . import specfun
