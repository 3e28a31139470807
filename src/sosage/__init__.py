"""Self-organizing symbiotic agents: an executable algebra of ordered
structures driving symbiotic neuro-evolution, with a breaking operator that
raises population order when progress stalls."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, config_from_dict, load_config, with_seed
from .envs import EnvSpec, GridNavEnv, XorEnv, make_env
from .harness import RunReport, resume, run, summarize_checkpoint, sweep
from .hyperstruct import ObsRecord, Structure, Universe
from .population import (
    BreakEvent,
    PendingDependency,
    Population,
    ProblemSpec,
    StallDetector,
    apply_break,
    apply_reverse_break,
    can_break,
    goal_reached,
    init_population,
    should_break,
)
from .symbio import (
    Assembly,
    EvolutionConfig,
    FitnessLedger,
    NeuronGene,
    assemble,
    detect_dependency,
    distribute_fitness,
    evaluate,
    evolve_generation,
    net_forward,
    run_symbiosis,
)
from .invariants import VerifyReport, verify

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "BreakEvent",
    "Checkpoint",
    "EnvSpec",
    "EvolutionConfig",
    "FitnessLedger",
    "GridNavEnv",
    "NeuronGene",
    "ObsRecord",
    "PendingDependency",
    "Population",
    "ProblemSpec",
    "RunConfig",
    "RunReport",
    "StallDetector",
    "Structure",
    "Universe",
    "VerifyReport",
    "XorEnv",
    "apply_break",
    "apply_reverse_break",
    "assemble",
    "can_break",
    "config_from_dict",
    "detect_dependency",
    "distribute_fitness",
    "evaluate",
    "evolve_generation",
    "goal_reached",
    "init_population",
    "load_checkpoint",
    "load_config",
    "make_env",
    "net_forward",
    "resume",
    "run",
    "run_symbiosis",
    "save_checkpoint",
    "should_break",
    "summarize_checkpoint",
    "sweep",
    "verify",
    "with_seed",
    "__version__",
]
