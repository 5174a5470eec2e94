"""Attack synthesis and simulation for control loops with lossy actuation.

A linear plant is driven by a receding-horizon controller whose commands
cross a packet-drop channel with per-channel Bernoulli delivery rates.  The
package builds the horizon controllers for acknowledgement-based (tcp-like)
and fire-and-forget (udp-like) loops, characterizes how the expected
horizon cost responds when an attacker shifts the delivery rates inside a
detection-constrained region, synthesizes optimal stationary and
per-step attack schedules, and validates every closed form by Monte-Carlo
simulation.
"""

from .attack_iid import (
    AttackBox,
    AttackCharacterization,
    AttackContext,
    BoxQP,
    Convexity,
    FloodingCondition,
    ObjectiveQuadratic,
    attack_context,
    build_qp,
    flooding_condition,
    optimal_alpha,
    optimal_alpha_tcp,
    optimal_alpha_udp,
)
from .attack_qp import (
    AttackSchedule,
    build_qp_tcp,
    build_qp_udp,
    schedule_objective,
    solve_box_qp_max,
    solve_iid_constrained,
)
from .channel import (
    STREAM_INIT,
    STREAM_LOSS,
    STREAM_NOISE,
    ChannelSpec,
    DetectionSpec,
    MonitorState,
    fresh_monitor,
    in_safe_region,
    philox_keys,
    philox_stream,
    update_monitor,
)
from .config import ExperimentConfig, load_experiment, parse_experiment
from .controller import (
    ControllerGain,
    Protocol,
    control_gain,
    optimal_input_sequence,
)
from .costs import (
    CostReport,
    cost_regimes,
    expected_attacked_cost,
    feedback_benefit,
)
from .errors import (
    ConfigError,
    DimensionError,
    DropAttackError,
    InfeasibleRegionError,
    NumericalError,
)
from .model import (
    PredictionEnsemble,
    SystemModel,
    build_prediction_ensemble,
)
from .simulate import (
    AggregateReport,
    AttackPlan,
    EpisodeConfig,
    SimulationTrace,
    empirical_increase,
    empirical_increases,
    horizon_cost_samples,
    monte_carlo,
    monte_carlo_arms,
    resolve_attack,
    run_episode,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "AttackBox",
    "AttackCharacterization",
    "AttackContext",
    "AttackPlan",
    "AttackSchedule",
    "BoxQP",
    "ChannelSpec",
    "ConfigError",
    "ControllerGain",
    "Convexity",
    "CostReport",
    "DetectionSpec",
    "DimensionError",
    "DropAttackError",
    "EpisodeConfig",
    "ExperimentConfig",
    "FloodingCondition",
    "InfeasibleRegionError",
    "MonitorState",
    "NumericalError",
    "ObjectiveQuadratic",
    "PredictionEnsemble",
    "Protocol",
    "SimulationTrace",
    "STREAM_INIT",
    "STREAM_LOSS",
    "STREAM_NOISE",
    "SystemModel",
    "attack_context",
    "build_prediction_ensemble",
    "build_qp",
    "build_qp_tcp",
    "build_qp_udp",
    "control_gain",
    "cost_regimes",
    "empirical_increase",
    "empirical_increases",
    "expected_attacked_cost",
    "feedback_benefit",
    "flooding_condition",
    "fresh_monitor",
    "horizon_cost_samples",
    "in_safe_region",
    "load_experiment",
    "monte_carlo",
    "monte_carlo_arms",
    "optimal_alpha",
    "optimal_alpha_tcp",
    "optimal_alpha_udp",
    "optimal_input_sequence",
    "parse_experiment",
    "philox_keys",
    "philox_stream",
    "resolve_attack",
    "run_episode",
    "schedule_objective",
    "solve_box_qp_max",
    "solve_iid_constrained",
    "update_monitor",
]
