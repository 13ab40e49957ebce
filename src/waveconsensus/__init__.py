"""Simulator and certificate toolkit for leader-follower consensus of
boundary-controlled 1-D wave agents."""

from .analysis import (FunctionalSample, FunctionalWeights, TimeSeries,
                       agmon_check, bound_columns, decay_fit, iss_check,
                       lyapunov_sample, poincare_check, regime_checks,
                       spatial_derivative)
from .certificate import (GainCertificate, build_certificate,
                          check_gains_perturbed, check_gains_unperturbed,
                          control_input, iss_bound, optimize_certificate)
from .errors import (CertificateError, ConfigError, DivergenceError,
                     TopologyError)
from .graph import (SpectralExtremes, Topology, build_topology,
                    eig_extremes_sym, is_connected, laplacian, pinned_matrix)
from .harness import (ExperimentConfig, parse_config, run_analyze,
                      run_check_gains, run_reproduce, run_simulate,
                      serialize_config, test_preset)
from .signals import (DisturbanceSpec, ProfileSpec, SignalSpec, SpaceTimeSpec,
                      ess_sup_running, eval_profile, eval_signal,
                      eval_space_time, zero_disturbances)
from .wavesim import (ControlGains, Grid, WaveState, init_state, simulate,
                      step)

__version__ = "0.1.0"
