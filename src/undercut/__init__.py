"""Undercutting-attack simulator and analysis library for fee-based mining."""

from .engine import (
    AvoidancePolicy,
    Block,
    Chain,
    MinerProfile,
    RunResult,
    Simulation,
    StalledSimulationError,
    parse_avoidance,
    profiles,
    run,
)
from .experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentSummary,
    derive_seed,
    emit_results,
    read_results,
    run_experiment,
)
from .mempool import (
    BandwidthSetResult,
    ChainParams,
    InstanceTooLargeError,
    MempoolView,
    RankTable,
    Transaction,
    UnsplittableError,
    bandwidth_set,
    claim_partial,
    claimable_fees,
    gamma_ratio,
    split_equal_fee,
)
from .probability import (
    InvalidShiftError,
    RacePoint,
    deep_catchup_bound,
    win_prob_d1,
    win_prob_series,
    win_prob_series_truncated,
)
from .strategy import (
    DegenerateRaceError,
    PowerSplit,
    ReturnEstimate,
    craft_avoidance_block,
    expected_returns_d1,
    expected_returns_d2,
    rational_shift_general,
    undercut_decision_d1,
    undercut_decision_d2,
)
from .trace import (
    PowerDistribution,
    TraceError,
    load_powers,
    load_trace,
    preset,
    synthesize_trace,
    write_powers,
    write_trace,
)

__version__ = "0.1.0"
