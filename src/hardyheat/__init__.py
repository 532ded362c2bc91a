"""Numerical laboratory for the fractional heat equation with a Hardy
potential: critical-exponent landscape, self-similar kernel profiles,
nonlocal operator evaluators, Cauchy-problem simulation with blow-up
detection, and certification of the explicit test-function and
supersolution constructions."""

__version__ = "0.1.0"

from .errors import (BlowupFitError, CertificationError, DomainError,
                     OutOfTableError, ProfileError, QuadratureError,
                     RegimeAmbiguityError, UnsupportedDatumError)
from .exponents import (ExponentProfile, PhaseRow, ProblemParams, Regime,
                        alpha_of_lambda, classify_regime, exponent_profile,
                        hardy_constant, lambda_of_alpha, m_alpha,
                        phase_table, phase_table_csv, power_coupling,
                        pv_normalization)
from .fracop import (Field, UniformGrid,
                     apply_ground_state_operator, bilinear_remainder,
                     build_ground_state_matrix,
                     frac_laplacian_quadrature_radial,
                     frac_laplacian_spectral, spectral_symbol,
                     verify_power_solution)
from .kernel import (KernelProfile, ball_mass, build_profile, check_envelope,
                     h_value, load_profile, profile_origin_value,
                     save_profile, sphere_area, tail_series_coefficients)
from .solver import (RadialGrid, SolverConfig, TrajectoryReport, Verdict,
                     estimate_blowup_time, monitor_norms, run,
                     save_trajectory, tail_linearity_residual)
from .constructions import (SupersolutionParams, TestFunctionParams,
                            check_scaling_ode, choose_supersolution,
                            compare_supersolution, critical_case_constants,
                            energy_blowup_criterion, energy_gap,
                            psi_differential_inequality, psi_eta_mass,
                            psi_eta_value, psi_mass_constant, smooth_bump,
                            supersolution_residual, supersolution_value,
                            y_ode_blowup_predictor)

__all__ = [name for name in dir() if not name.startswith("_")]
