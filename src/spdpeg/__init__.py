"""Stochastic primal-dual proximal extra-gradient solver and benchmark kit."""

from .baselines import run_eg_full, run_stoch_linadmm
from .data import ParseError, SplitSpec, normalize_features, parse_libsvm, \
    serialize_libsvm, split, synthesize
from .model import (LOSS_KINDS, LOSS_LEAST_SQUARES, LOSS_LOGISTIC,
                    REGIME_CONVEX, REGIME_SC_NONUNIFORM, REGIME_SC_UNIFORM,
                    REGIMES, Dataset, Problem, Sample, SolverConfig,
                    compute_L_tilde, estimate_lipschitz)
from .oracles import (NoiseStats, data_loss, estimate_noise, full_gradient,
                      loss_value, stochastic_gradient)
from .penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                        load_penalty, precision_graph_from_data, save_penalty)
from .prox import ProxSpec, apply_prox, prox_l1, prox_squared_l2, reg_value
from .solver import (DivergenceError, Schedule, SolverResult, SolverState,
                     StepCapture, StepInequalityReport, average_weight,
                     check_step_inequality, make_schedule, relative_slack, run,
                     schedule_bracket_coefficients, step_size,
                     update_extragradient, update_z)
from .sparse import PowerIterationError, SparseMatrix, power_iteration_sigma_max
from .trace import TraceRecord, read_trace_csv, write_trace_csv

__version__ = "0.1.0"
