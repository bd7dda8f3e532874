"""hyplab: numerical laboratory for sharp Poincare and Hardy inequalities
on hyperbolic space.

The package evaluates the weights entering the improved inequalities,
solves the transcendental equations for their critical radii, builds the
near-extremal test-function families, and certifies every inequality
instance by adaptive quadrature with explicit error accounting.
"""

from .constants import CNPResult, brute_force_cnp, c_2p, c_2p_direct, c_np, check_ni, q_b
from .core import HypothesisError, Params, geodesic_distance, h_func, weight_hp, weight_v
from .integrals import halfspace_integral, radial_energy, radial_weighted_mass
from .quadrature import (
    NonIntegrableSingularity,
    QuadResult,
    ToleranceNotAchieved,
    integrate_interval,
)
from .report import ReportEnvelope, compare_golden, emit
from .rp import RootResult, rp_scan_N, rp_scan_p, solve_r0, solve_rp
from .testfun import HalfSpaceFunction, RadialTestFunction, make_bump, make_veps
from .verify import (
    InequalityKind,
    InequalityReport,
    batch_verify,
    check_ftilde,
    check_pconvexity,
    sharpness_scan,
    supersolution_residual,
    verify,
)

__version__ = "0.1.0"
