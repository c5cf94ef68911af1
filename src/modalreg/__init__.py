"""Spectral feedforward regulation toolkit for diagonal plants with
periodic exosystems: operator calculus, gain design, steady-state maps,
exact closed-loop simulation and decay certification."""

from .errors import (AssumptionFailure, ConfigError, ModeMismatchError,
                     SingularResolventError)
from .exosystem import (ExoSpace, ExoState, dirac_functional, graph_norm,
                        group_apply, is_conjugate_symmetric, synthesize_signal,
                        weighted_norm)
from .regulator import (Assumption1Report, Assumption2Report, FeedforwardGain,
                        FrequencyGrid, ModalCoupling, SylvesterSolution,
                        build_feedforward, check_assumption1,
                        check_assumption2, control_signal, forcing_columns,
                        forcing_matrix, frequency_grid,
                        residual_first_equation, residual_second_equation,
                        solve_regulator)
from .scenarios import (ScenarioConfig, build_diagonal_scenario,
                        build_random_scenario, build_scenario,
                        build_wave_scenario, resolve_w0, resolve_z0)
from .simulator import (DecayCertificate, SimulationResult, certify_decay,
                        error_formula_check, simulate_closed_loop,
                        state_deviation_norms)
from .spectral import (DecayReport, DiagonalGenerator, EnvelopeResult,
                       GeometricConditionReport, ModeRange, SpectralVector,
                       TailReport, check_geometric_condition, classify_tail,
                       classify_tails, decay_envelope, fit_decay_rate,
                       fractional_norm, semigroup_apply)
from .sylvester import (BRegularityReport, ConformityReport, QuadratureSpec,
                        check_b_regularity, conformity_diagnostic,
                        lemma_identity_check, quadrature_pi_column)

__version__ = "0.1.0"
