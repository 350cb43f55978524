"""Event-triggered funnel control for timed reach/hold tasks.

The library parses conjunctive formulas with Eventually/Always windows,
finds the best reachable robustness, synthesizes shrinking performance
funnels around it, and simulates event-triggered feedback that keeps
the smoothed robustness inside its funnel on nonlinear plants.
"""

from .errors import (
    ConfigError,
    DeadlineError,
    FormulaError,
    FunnelViolation,
    OptimizationError,
    ParseError,
    StlFunnelError,
    SynthesisError,
    TriggerFloorError,
    WindowError,
)
from .formulas import (
    AtomicTask,
    NonTemporalFormula,
    SequentialFormula,
    SmoothingConfig,
    TemporalFormula,
    normalize_sequential,
)
from .parsing import parse_formula, parse_psi
from .predicates import PredicateSpec, affine, ball, join
from .kernels import (
    exact_psi_batch,
    exact_psi_value,
    smooth_psi_hessian,
    smooth_psi_value,
    smooth_psi_value_and_grad,
)
from .monitor import monitor_robustness
from .funnel import (
    FunnelParams,
    PerformanceFunction,
    SynthesisConfig,
    audit_funnel,
    gamma_at,
    synthesize_funnel,
)
from .optimize import OptimizationResult, optimize_robustness
from .plants import Plant, omni_robot_team, single_integrator
from .controller import (
    TriggerConfig,
    TriggerEvent,
    compute_trigger_radius,
    continuous_law,
    law_jacobian,
    should_trigger,
)
from .sequencer import (
    HybridState,
    SequencerConfig,
    init_sequencer,
    jump_if_due,
)
from .sim import EpisodeSpec, RunMetrics, Trajectory, run_episode
from .scenario import build_episode, bundled_scenario_path, load_scenario
from .reporting import write_all

__version__ = "0.1.0"

__all__ = [
    "AtomicTask",
    "ConfigError",
    "DeadlineError",
    "EpisodeSpec",
    "FormulaError",
    "FunnelParams",
    "FunnelViolation",
    "HybridState",
    "NonTemporalFormula",
    "OptimizationError",
    "OptimizationResult",
    "ParseError",
    "PerformanceFunction",
    "Plant",
    "PredicateSpec",
    "RunMetrics",
    "SequencerConfig",
    "SequentialFormula",
    "SmoothingConfig",
    "StlFunnelError",
    "SynthesisConfig",
    "SynthesisError",
    "TemporalFormula",
    "Trajectory",
    "TriggerConfig",
    "TriggerEvent",
    "TriggerFloorError",
    "WindowError",
    "affine",
    "audit_funnel",
    "ball",
    "build_episode",
    "bundled_scenario_path",
    "compute_trigger_radius",
    "continuous_law",
    "exact_psi_batch",
    "exact_psi_value",
    "gamma_at",
    "init_sequencer",
    "join",
    "jump_if_due",
    "law_jacobian",
    "load_scenario",
    "monitor_robustness",
    "normalize_sequential",
    "omni_robot_team",
    "optimize_robustness",
    "parse_formula",
    "parse_psi",
    "run_episode",
    "should_trigger",
    "single_integrator",
    "smooth_psi_hessian",
    "smooth_psi_value",
    "smooth_psi_value_and_grad",
    "synthesize_funnel",
    "write_all",
]
