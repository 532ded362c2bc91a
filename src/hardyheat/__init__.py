"""Numerical laboratory for the fractional heat equation with a Hardy
potential: critical-exponent landscape, self-similar kernel profiles,
nonlocal operator evaluators, Cauchy-problem simulation with blow-up
detection, and certification of the explicit test-function and
supersolution constructions."""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

# one BLAS thread unless the caller set one: threaded LAPACK factorizations
# round differently at each thread count; numpy reads these when it loads,
# so a process that loaded numpy first keeps the setting it loaded with,
# which every manifest records (the pin still reaches --jobs workers)
_NUMPY_LOADED_FIRST = "numpy" in _sys.modules
_BLAS_THREADS = _os.environ.get(
    "OPENBLAS_NUM_THREADS",
    "unset (library default)" if _NUMPY_LOADED_FIRST else "1")
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .errors import (BlowupFitError, CertificationError, DomainError,
                     ProfileError, QuadratureError, RegimeAmbiguityError,
                     UnsupportedDatumError)
from .exponents import (ExponentProfile, ProblemParams, Regime,
                        alpha_of_lambda, classify_regime, exponent_profile,
                        hardy_constant, lambda_of_alpha, phase_table,
                        power_coupling, pv_normalization)
from .fracop import (Field, UniformGrid,
                     apply_ground_state_operator, build_ground_state_matrix,
                     frac_laplacian_quadrature_radial,
                     frac_laplacian_spectral, spectral_symbol,
                     verify_power_solution)
from .kernel import (KernelProfile, build_profile, check_envelope, h_value,
                     profile_moment, profile_origin_value, sphere_area,
                     tail_series_coefficients)
from .solver import (RadialGrid, SolverConfig, TrajectoryReport, Verdict,
                     blowup_fit, monitor_norms, run)
from .constructions import (SupersolutionCertificate, SupersolutionParams,
                            TestFunctionParams, check_scaling_ode,
                            choose_supersolution, compare_supersolution,
                            critical_case_constants,
                            energy_blowup_criterion, energy_gap,
                            psi_differential_inequality, psi_eta_mass,
                            psi_eta_value, psi_mass_constant, smooth_bump,
                            supersolution_residual, supersolution_value,
                            y_ode_blowup_predictor)

# the names imported above, not the submodules those imports bind
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_")
                 and not isinstance(obj, _ModuleType))
