"""Discrete-event simulation of feedback control loops sharing one
wireless hop, with age- and control-aware medium-access policies."""

from .aoi import (adra_mean_aoi, adra_model_valid, optimize_adra, rr_mean_aoi,
                  sa_mean_aoi, solve_adra_q)
from .channel import ChannelConfig, resolve_pointtopoint, resolve_slot
from .engine import SimConfig, run, run_replications, systems_from_classes
from .errors import (ConfigurationError, InvariantViolation,
                     OptimizationError, SynthesisError)
from .experiments import (DEFAULT_COMPARISON_CHANNEL, ExperimentSpec,
                          parse_config, pendulum_case_study, run_single,
                          run_sweep, validate_theory)
from .mac import (ReliabilityWindow, SchedulerPolicy, mef_build_schedule,
                  pmef_next, rr_next, wifresh_next)
from .metrics import (MetricsAccumulator, MseTable, error_covariance,
                      mse_of_age, nmse_of_age)
from .systems import (DareSolution, LtiSystem, PendulumParams, discretize_zoh,
                      make_preset, pendulum_continuous, solve_dare)

__version__ = "0.1.0"
