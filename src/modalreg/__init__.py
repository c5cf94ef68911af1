"""Spectral feedforward regulation toolkit for diagonal plants with
periodic exosystems: operator calculus, gain design, steady-state maps,
exact closed-loop simulation and decay certification."""

from .errors import (AssumptionFailure, ConfigError, ModeMismatchError,
                     SingularResolventError)
from .exosystem import ExoSpace, ExoState, synthesize_signal
from .regulator import (Assumption1Report, Assumption2Report, FeedforwardGain,
                        FrequencyGrid, ModalCoupling, SteadyStateImage,
                        SylvesterSolution, build_feedforward,
                        check_assumption1, check_assumption2, control_signal,
                        forcing_matrix, frequency_grid,
                        residual_first_equation, residual_second_equation,
                        solve_regulator, steady_state_image)
from .scenarios import (ScenarioConfig, build_random_scenario, build_scenario,
                        resolve_w0, resolve_z0)
from .simulator import (DecayCertificate, OutputTrajectory, SimulationResult,
                        certify_decay, simulate_closed_loop, simulate_outputs,
                        state_deviation_norms)
from .spectral import (DiagonalGenerator, EnvelopeResult, LogLogFit,
                       ModeRange, SpectralVector, TailReport,
                       check_geometric_condition, classify_tail,
                       decay_envelope, fit_decay_rate, fractional_norm)
from .sylvester import (ConformityReport, check_b_regularity,
                        conformity_diagnostic, quadrature_pi_column)

__version__ = "0.1.0"
