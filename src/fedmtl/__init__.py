"""Federated multi-task learning: a straggler- and dropout-tolerant
primal-dual solver for per-task linear models coupled through a learned or
fixed task-relationship matrix, plus baselines, a systems-cost simulator, and
convergence-rate calculators."""

from .data import (
    DataFormatError,
    FederatedDataset,
    SyntheticSpec,
    TaskDataset,
    generate_synthetic,
    load_federated_csv,
    prediction_error,
    save_federated_csv,
    standardize,
    train_test_split,
)
from .losses import (
    INFEASIBLE,
    DualInfeasibleError,
    LossKind,
    conjugate_value,
    coordinate_update,
    loss_constants,
    loss_value,
)
from .regularizers import (
    MeanRegularized,
    OmegaModel,
    ProbabilisticPrior,
    RelationshipState,
    build_mbar,
    build_relationship,
    initial_omega,
    mean_reg_omega,
    primal_from_dual,
    regularizer_conjugate,
    regularizer_value,
    sigma_prime,
    sigma_prime_per_task,
    update_omega,
)
from .solver import (
    ConstantPolicy,
    ConvergenceError,
    DualState,
    MochaResult,
    PrimalState,
    RoundStats,
    SolverConfig,
    dual_objective,
    duality_gap,
    federated_round,
    init_dual_state,
    measure_theta,
    oracle_subproblem_opt,
    primal_objective,
    run_mocha,
    run_w_update,
    solve_local,
    write_trace_csv,
    write_trace_jsonl,
)
from .baselines import (
    DEFAULT_LAMBDA_GRID,
    cocoa_run,
    compare_models,
    mb_sdca_run,
    mb_sgd_run,
    model_select,
    train_global,
    train_local,
)
from .simulation import (
    PRESETS,
    HeterogeneityPolicy,
    NetworkPreset,
    NodeProfile,
    SystemsPolicy,
    attach_times,
    preset_for_ratio,
    round_time,
    simulate_run,
)
from .theory import (
    SigmaStats,
    convergence_constant_s,
    lipschitz_iteration_bound,
    sigma_stats,
    sigma_t,
    smooth_iteration_bound,
    theta_bar,
    verify_lemma_decrease,
    verify_sigma_prime_inequality,
)

__version__ = "0.1.0"
