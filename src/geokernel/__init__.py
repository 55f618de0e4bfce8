"""Positive-definiteness analysis of Gaussian kernels on curved metric
spaces: exact circulant spectra for equispaced circle configurations,
high-precision partial-theta bounds, non-PSD witness certificates,
isometric witness transfer, and a Stein-divergence bandwidth probe.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .spaces import (
    Circle,
    Euclidean,
    FlatTorus,
    Grassmannian,
    InvalidPointError,
    InvalidSpaceError,
    ProjectiveSpace,
    SpdMatrices,
    Sphere,
    circle_equispaced,
    distance,
    distance_matrix,
    pair_distances,
    parse_space,
    principal_angles,
    sample_points,
)
from .gram import GramMatrix
from .spectral import (
    PdVerdict,
    SpectrumReport,
    circulant_eigenvalues,
    jacobi_eigenvalues,
    jacobi_eigensystem,
    min_eigenvector,
    pd_verdict,
    psd_tolerance,
)
from .partial_theta import (
    PartialThetaResult,
    bound_rhs,
    lambda_of_mu,
    leading_term,
    mu_of_lambda,
    tail_decomposition_check,
)
from .circle import (
    circle_witness,
    find_witness_size,
    lambda_crit,
    w_half,
)
from .certificates import (
    CertificateError,
    VerificationResult,
    WitnessCertificate,
    build_certificate,
    cert_from_json,
    cert_to_json,
    psd_decision,
    quadratic_form,
    verify_certificate,
)
from .embeddings import (
    source_circle,
    transfer_witness,
    verify_isometry,
    witness_for_target,
)
from .stein import (
    SteinProbeReport,
    in_lambda_plus_set,
    probe,
    stein_divergence,
)

# every imported public name; ``from .x import`` also binds the submodules
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
