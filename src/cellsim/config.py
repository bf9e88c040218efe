"""Scenario configuration for the multi-cell association simulator.

Every tunable lives here: map geometry, radio constants, the rate-to-utility
mapping, user mobility, channel fading, and episode settings.  Configs
serialize to a sectioned JSON document whose canonical SHA-256 hash stamps
every dataset built from them, so a trajectory file can always be traced
back to the exact scenario that produced it.

The ``radio``, ``utility``, ``mobility`` and ``fading`` sections are
serialized from their dataclass fields; ``network`` and ``episode`` regroup
``NetworkConfig``'s own fields.  Loading rejects unknown keys (a missing key
takes its default), and every section rejects non-finite numbers, so a bad
config raises a ``ValueError`` that names the offending field.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "RadioParams",
    "UtilityParams",
    "MobilityConfig",
    "FadingModel",
    "NetworkConfig",
    "default_config",
    "parse_fading",
    "load_config",
    "save_config",
    "DEFAULT_MEDIUM_EPSILON",
]

# Log-distance path loss defaults (dB domain).
_TX_POWER_DBM = 30.0
_NOISE_DBM = -90.0
_PATHLOSS_EXPONENT = 3.0
_REFERENCE_DISTANCE = 1.0
_REFERENCE_PATHLOSS_DB = 40.0

DEFAULT_MAP_SIZE = 200.0

# Distance at which the normalized SNR saturates to 1.  Chosen so that the
# 0.1-grid of association thresholds discriminates users over the distances
# that actually occur on the default map; anchoring the upper reference at
# the path-loss reference distance instead would squash almost every
# normalized SNR to ~0 and make thresholding degenerate.
DEFAULT_UPPER_REF_DISTANCE = 20.0

DEFAULT_SPEED = 2.5
# Rate scale of log2(1 + snr).  Calibrated together with the upper SNR
# reference so a tracking policy beats a threshold-agnostic one by a wide
# margin while the reward still peaks at an interior threshold.
DEFAULT_BANDWIDTH = 600.0
DEFAULT_HORIZON = 100
DEFAULT_THRESHOLD_STEP = 0.1

# Exploration rate of the medium-tier behavioral policy.
DEFAULT_MEDIUM_EPSILON = 0.3


def _snr_from_distance(distance: np.ndarray, tx_power_dbm, noise_dbm,
                       reference_pathloss_db, pathloss_exponent, reference_distance):
    """Linear SNR of the log-distance law,

        10 ** ((tx - noise - PL0 - 10 n log10(max(d, d0) / d0)) / 10),

    computed in the float array of distances ``distance``, which it
    overwrites and returns."""
    d = np.maximum(distance, reference_distance, out=distance)
    d /= reference_distance
    np.log10(d, out=d)
    d *= 10.0 * pathloss_exponent
    np.subtract(tx_power_dbm - noise_dbm - reference_pathloss_db, d, out=d)
    d /= 10.0
    return np.power(10.0, d, out=d)


def _default_ref(distance):
    return float(_snr_from_distance(np.array(distance, dtype=float), _TX_POWER_DBM, _NOISE_DBM,
                                    _REFERENCE_PATHLOSS_DB, _PATHLOSS_EXPONENT,
                                    _REFERENCE_DISTANCE))


_DEFAULT_UPPER_REF = _default_ref(DEFAULT_UPPER_REF_DISTANCE)
_DEFAULT_LOWER_REF = _default_ref(math.hypot(DEFAULT_MAP_SIZE, DEFAULT_MAP_SIZE) / 2.0)


def _finite_real(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _integer(name: str, value, low=None) -> int:
    """The count or seed argument ``name`` as a Python int; numpy integers
    pass.  A bool, a float or any other non-integer raises
    ``ValueError("<name> must be an integer, got <value>")``, and a value
    below ``low``, when given, ``ValueError("<name> must be at least <low>,
    got <value>")``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set, or
    the machine's CPU count where the platform has no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _fraction(what: str, value) -> float:
    """The fraction ``what`` as a Python float.  A bool, a non-number and a
    number outside [0, 1] raise ``ValueError("<what> must lie in [0, 1]")``;
    numpy numbers pass."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 <= value <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1]")
    return float(value)


def _check_type(name: str, value, cls) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_numbers(obj) -> None:
    """Require every float field of a config dataclass to hold a finite real
    number and every int field an integer; a bool is neither.  A float field
    given an integer stores it as a float, so ``3`` and ``3.0`` describe, and
    hash as, the same scenario."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float" and not _finite_real(value) or f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            kind = "an integer" if f.type == "int" else "a finite number"
            raise ValueError(f"{type(obj).__name__}.{f.name} must be {kind}, "
                             f"got {value!r}")
        if f.type == "float" and not isinstance(value, float):
            object.__setattr__(obj, f.name, float(value))


def _points(value, what: str, width: float, height: float) -> tuple:
    """``value`` as a tuple of ``(x, y)`` float pairs, each inside the map."""
    try:
        ok = all(_finite_real(x) and _finite_real(y) for x, y in value)
    except (TypeError, ValueError):  # not a list of pairs
        ok = False
    if not ok:
        raise ValueError(f"{what} positions must be a list of [x, y] pairs of finite "
                         f"numbers, got {value!r}")
    points = tuple((float(x), float(y)) for x, y in value)
    for x, y in points:
        if not (0 <= x <= width and 0 <= y <= height):
            raise ValueError(f"{what} ({x}, {y}) outside map")
    return points


@dataclass(frozen=True)
class RadioParams:
    """Log-distance path loss constants plus the SNR normalization window.

    ``snr_upper_ref`` and ``snr_lower_ref`` are linear SNR ratios: raw SNR at
    or above the upper reference normalizes to 1, at or below the lower
    reference to 0.  The lower reference doubles as the disconnection
    frontier of the scenario.
    """

    tx_power_dbm: float = _TX_POWER_DBM
    noise_dbm: float = _NOISE_DBM
    pathloss_exponent: float = _PATHLOSS_EXPONENT
    reference_distance: float = _REFERENCE_DISTANCE
    reference_pathloss_db: float = _REFERENCE_PATHLOSS_DB
    snr_upper_ref: float = _DEFAULT_UPPER_REF
    snr_lower_ref: float = _DEFAULT_LOWER_REF

    def __post_init__(self):
        _check_numbers(self)
        if self.reference_distance <= 0:
            raise ValueError("reference_distance must be positive")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be positive")
        if not (self.snr_upper_ref > self.snr_lower_ref > 0):
            raise ValueError("need snr_upper_ref > snr_lower_ref > 0")


@dataclass(frozen=True)
class UtilityParams:
    """Shape of the per-user rate-to-utility mapping.

    A delivered rate ``d`` maps to ``g(d) = clip(w1 * log(w2 + d) / log(w3),
    clip_low, clip_high)`` and then rescales linearly onto [0, 1].
    ``aggregate`` selects whether a user's rate across its connected stations
    is averaged or summed before the mapping.
    """

    bandwidth: float = DEFAULT_BANDWIDTH
    w1: float = 10.0
    w2: float = 1.0
    w3: float = 10.0
    clip_low: float = -20.0
    clip_high: float = 20.0
    aggregate: str = "mean"

    def __post_init__(self):
        _check_numbers(self)
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.w2 <= 0:
            raise ValueError("w2 must be positive to keep log(w2 + d) finite at d = 0")
        if self.w3 <= 1:
            raise ValueError("w3 must exceed 1")
        if not self.clip_high > self.clip_low:
            raise ValueError("need clip_high > clip_low")
        if self.aggregate not in ("mean", "sum"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")


@dataclass(frozen=True)
class MobilityConfig:
    """Random-waypoint motion settings.

    ``full`` roams the whole map.  ``limited`` confines each user to a disc
    around a per-user anchor: initial positions within ``init_radius``,
    waypoints within ``waypoint_radius``.  Anchors are resampled per episode
    unless pinned explicitly via ``anchors``.
    """

    variant: str = "full"
    speed: float = DEFAULT_SPEED
    map_width: float = DEFAULT_MAP_SIZE
    map_height: float = DEFAULT_MAP_SIZE
    init_radius: float = 20.0
    waypoint_radius: float = 10.0
    anchors: tuple | None = None

    def __post_init__(self):
        _check_numbers(self)
        if self.variant not in ("full", "limited"):
            raise ValueError(f"unknown mobility variant {self.variant!r}")
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if self.map_width <= 0 or self.map_height <= 0:
            raise ValueError("map dimensions must be positive")
        if self.init_radius < 0 or self.waypoint_radius < 0:
            raise ValueError("radii must be non-negative")
        if self.anchors is not None:
            object.__setattr__(self, "anchors", _points(self.anchors, "anchor",
                                                        self.map_width, self.map_height))


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading of the channel amplitude H with E[H^2] = omega.

    ``none`` fixes H = 1, ``rayleigh`` draws from the Rayleigh law, and
    ``rician`` adds a line-of-sight component of strength ``k_factor``
    (k_factor = 0 reduces to Rayleigh).
    """

    kind: str = "none"
    omega: float = 1.0
    k_factor: float = 0.0

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in ("none", "rayleigh", "rician"):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.k_factor < 0:
            raise ValueError("k_factor must be non-negative")

    def label(self) -> str:
        if self.kind == "rician":
            return f"rician:{self.k_factor:g}"
        return self.kind


def parse_fading(spec: str) -> FadingModel:
    """Parse a fading spec string: ``none``, ``rayleigh``, or ``rician:K``
    with K a number, in any case and with blanks around it.  Anything else
    raises ``ValueError`` naming the spec."""
    if not isinstance(spec, str):
        raise ValueError(f"fading spec must be a string, got {spec!r}")
    text = spec.strip().lower()
    if text in ("none", "rayleigh"):
        return FadingModel(kind=text)
    kind, _, k = text.partition(":")
    if kind != "rician":
        raise ValueError(f"unknown fading spec {spec!r}")
    try:
        k_factor = float(k)
    except ValueError:
        raise ValueError(f"fading spec {spec!r} needs a number K, as in rician:3") from None
    return FadingModel(kind="rician", k_factor=k_factor)


# The sections serialized from their own dataclass fields, by JSON name.
_SECTIONS = {"radio": RadioParams, "utility": UtilityParams,
             "mobility": MobilityConfig, "fading": FadingModel}
# The sections that regroup NetworkConfig's own fields.
_OWN_SECTIONS = {"network": ("n_bs", "n_ues", "bs_positions"),
                 "episode": ("horizon", "threshold_step")}
# The keys each section of the JSON document may hold.
_KEYS = {**_OWN_SECTIONS,
         **{name: [f.name for f in fields(cls)] for name, cls in _SECTIONS.items()}}


def _json_object(value, what: str, keys) -> dict:
    """``value`` checked to be a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}")
    return value


def _default_bs_positions():
    # Three stations evenly spaced on the horizontal midline of the map.
    w, h = DEFAULT_MAP_SIZE, DEFAULT_MAP_SIZE
    return ((w / 4.0, h / 2.0), (w / 2.0, h / 2.0), (3.0 * w / 4.0, h / 2.0))


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable description of one simulation scenario."""

    n_bs: int = 3
    n_ues: int = 5
    bs_positions: tuple = field(default_factory=_default_bs_positions)
    radio: RadioParams = field(default_factory=RadioParams)
    utility: UtilityParams = field(default_factory=UtilityParams)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    fading: FadingModel = field(default_factory=FadingModel)
    horizon: int = DEFAULT_HORIZON
    threshold_step: float = DEFAULT_THRESHOLD_STEP

    def __post_init__(self):
        for name, cls in _SECTIONS.items():
            _check_type(f"NetworkConfig.{name}", getattr(self, name), cls)
        _check_numbers(self)
        m = self.mobility
        positions = _points(self.bs_positions, "station", m.map_width, m.map_height)
        object.__setattr__(self, "bs_positions", positions)
        if self.n_bs < 1 or self.n_ues < 1:
            raise ValueError("need at least one station and one user")
        if len(positions) != self.n_bs:
            raise ValueError(f"expected {self.n_bs} station positions, got {len(positions)}")
        if m.anchors is not None and len(m.anchors) != self.n_ues:
            raise ValueError(f"expected {self.n_ues} anchors, got {len(m.anchors)}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not (0 < self.threshold_step <= 1):
            raise ValueError("threshold_step must lie in (0, 1]")

    @property
    def n_actions(self) -> int:
        return 3 ** self.n_bs

    @property
    def obs_dim(self) -> int:
        return self.n_bs + self.n_bs * self.n_ues + self.n_ues

    def to_dict(self) -> dict:
        doc = {name: {key: getattr(self, key) for key in keys}
               for name, keys in _OWN_SECTIONS.items()}
        for name in _SECTIONS:
            section = getattr(self, name)
            doc[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        return doc

    @classmethod
    def from_dict(cls, doc) -> "NetworkConfig":
        kwargs = {}
        for name, values in _json_object(doc, "config", _KEYS).items():
            values = _json_object(values, f"config section {name!r}", _KEYS[name])
            if name in _SECTIONS:
                kwargs[name] = _SECTIONS[name](**values)
            else:
                kwargs.update(values)
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def default_config(mobility_variant: str = "full", fading="none",
                   horizon: int = DEFAULT_HORIZON) -> NetworkConfig:
    """The default 3-station / 5-user scenario with a chosen mobility variant.

    The limited variant pins every anchor at one shared off-row point, so
    all users live in one disc: initial positions within ``init_radius`` of
    it, waypoints within ``waypoint_radius``.  The point sits 40 map-units
    below the central station, far enough that association choices still
    matter (on the station row itself every threshold connects and the
    episode saturates).  Configs that want per-user anchor placement can
    pass explicit ``anchors`` or leave them unset to have fresh ones drawn
    each episode.
    """
    model = fading if isinstance(fading, FadingModel) else parse_fading(fading)
    cluster = (DEFAULT_MAP_SIZE / 2.0, DEFAULT_MAP_SIZE * 0.3)
    anchors = (cluster,) * 5 if mobility_variant == "limited" else None
    return NetworkConfig(mobility=MobilityConfig(variant=mobility_variant,
                                                 anchors=anchors),
                         fading=model, horizon=horizon)


def load_config(path) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return NetworkConfig.from_dict(json.load(fh))


def save_config(cfg: NetworkConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
