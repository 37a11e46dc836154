"""Tight two-sided bounds between conditional Shannon entropy and the
expected alpha-norm of conditional distributions, with the induced bounds
on conditional Renyi entropy, R-norm information, Arimoto mutual
information and Gallager's E0 function, plus the brute-force oracles and
achieving witnesses that certify every bound.
"""

from .simplex import (
    DomainError,
    NumericalError,
    alpha_log,
    alpha_norm,
    make_peaked,
    make_stepped,
    make_uniform,
    shannon_entropy,
)
from .curves import (
    InflectionPoint,
    TangentPoint,
    curvature_sign,
    dnorm_dh_peaked,
    entropy_peaked,
    entropy_stepped,
    inflection_point,
    inv_entropy_peaked,
    inv_entropy_stepped,
    norm_peaked,
    norm_stepped,
    solve_tangent_generic,
    tangent_point,
    tangent_residual,
)
from .bounds import (
    BoundEnvelope,
    cond_entropy_range_for_norm,
    entropy_range_for_norm,
    envelope,
    envelope_lower,
    envelope_upper,
    envelope_upper_half,
    has_upper_envelope,
    norm_uniform,
    sandwich_norm,
)
from .measures import (
    Channel,
    JointDist,
    arimoto_mutual_uniform,
    cond_renyi,
    cond_rnorm,
    cond_shannon,
    e0_range_for_mutual,
    expected_alpha_norm,
    gallager_e0_uniform,
    joint_from_channel_uniform,
    mutual_range_for_mutual,
    renyi_range_for_entropy,
    rnorm_range_for_entropy,
)
from .oracle import (
    VerifyReport,
    brute_force_lower,
    brute_force_upper,
    random_joint,
    sample_joint_batch,
    verify_envelope,
    verify_sandwich,
    witness_max,
    witness_min,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
