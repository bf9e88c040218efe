"""Multi-cell association-threshold control simulator with dataset tooling."""

from .config import (DEFAULT_MEDIUM_EPSILON, FadingModel, MobilityConfig,
                     NetworkConfig, RadioParams, UtilityParams, default_config,
                     load_config, parse_fading, save_config)
from .data import (DatasetManifest, Trajectory, ablate, collect, collect_medium_expert,
                   collect_trajectory, histogram_overlap, load_dataset, return_stats,
                   write_dataset)
from .env import CellularNetworkEnv, decode_action, encode_action
from .harness import EvalResult, SweepReport, evaluate, fading_sweep, rescale
from .mac import (ConcavityReport, JensenReport, concavity_probe, connections,
                  data_rate, ratefair_fractions, reward, reward_terms, user_rates,
                  utility, verify_jensen)
from .mobility import MotionState, init_positions, sample_waypoint, step_motion
from .policies import GreedyExpertPolicy, MediumPolicy, RandomPolicy, make_policy
from .radio import fade_matrix, normalize_snr, raw_snr, sample_fading, snr_matrix

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
    "MotionState",
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
    "connections",
    "data_rate",
    "decode_action",
    "default_config",
    "encode_action",
    "evaluate",
    "fade_matrix",
    "fading_sweep",
    "histogram_overlap",
    "init_positions",
    "load_config",
    "load_dataset",
    "make_policy",
    "normalize_snr",
    "parse_fading",
    "ratefair_fractions",
    "raw_snr",
    "rescale",
    "return_stats",
    "reward",
    "reward_terms",
    "sample_fading",
    "sample_waypoint",
    "save_config",
    "snr_matrix",
    "step_motion",
    "user_rates",
    "utility",
    "verify_jensen",
    "write_dataset",
]
