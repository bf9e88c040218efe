"""Scenario configuration for the multi-cell association simulator.

Every tunable lives here: map geometry, radio constants, the rate-to-utility
mapping, user mobility, channel fading, and episode settings.  Configs
serialize to a sectioned JSON document whose canonical SHA-256 hash stamps
every dataset built from them, so a trajectory file can always be traced
back to the exact scenario that produced it.

The ``radio``, ``utility``, ``mobility`` and ``fading`` sections are
serialized from their dataclass fields; ``network`` and ``episode`` regroup
``NetworkConfig``'s own fields.  Loading rejects unknown keys (a missing key
takes its default).  Every section checks each of its fields once, in one
walk: a number must be finite, an integer field must hold an integer, a
section must be its class, and a field that declares a range (``above``,
``low``, ``high``) or ``choices`` beside its default must keep within it.  A
few checks that relate two fields follow the walk.

``_checked`` is the one check of a single value, for these fields and for
the count, seed, fraction and type arguments of the rest of the package.
Every refusal it makes is a ``ValueError`` that reads ``<name> must be
<requirement>, got <value>``, as in ``MobilityConfig.speed must be at least
0, got -1.0`` or ``epsilon must be at most 1, got 1.5``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set, or
    the machine's CPU count where the platform has no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


# Each bound a value may be given: the test it must pass, and the words of
# the refusal.
_BOUNDS = {"above": (operator.gt, "greater than"), "low": (operator.ge, "at least"),
           "high": (operator.le, "at most"),
           "choices": (lambda value, choices: value in choices, "one of")}
# Each number kind: the test a value must pass, the words of the refusal,
# and the Python type the value is stored as, whatever number it was.
_KINDS = {"float": (_finite_real, "a finite number", float),
          "int": (lambda value: not isinstance(value, bool)
                  and isinstance(value, numbers.Integral), "an integer", int)}


def _checked(name: str, value, kind, **bounds):
    """The scalar ``value`` of the argument or field ``name``, checked and
    returned as ``kind`` stores it.  ``kind`` is ``"float"`` (a finite real,
    stored as a Python float), ``"int"`` (an integer, stored as a Python
    int; a bool is neither, numpy numbers pass), a class (an instance of
    it), or any other field annotation, such as ``"str"``, whose type is
    not tested.  The stored value must then keep each of ``bounds``:
    ``above`` (exclusive), ``low`` and ``high`` (inclusive), or a tuple of
    ``choices``.  A refusal raises ``ValueError("<name> must be
    <requirement>, got <value>")``, the value as stored once its type has
    passed."""
    if isinstance(kind, type):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    elif kind in _KINDS:
        ok, words, stored = _KINDS[kind]
        if not ok(value):
            raise ValueError(f"{name} must be {words}, got {value!r}")
        value = stored(value)
    for key, bound in bounds.items():
        ok, words = _BOUNDS[key]
        if not ok(value, bound):
            shown = ", ".join(bound) if key == "choices" else bound
            raise ValueError(f"{name} must be {words} {shown}, got {value!r}")
    return value


def _check_fields(obj) -> None:
    """Check every field of a config dataclass with ``_checked``, named
    ``Class.field``, as its annotation (or, for a section of
    ``NetworkConfig``, its section class) and the bounds its ``metadata``
    declares.  A float field given an integer stores it as a float, so
    ``3`` and ``3.0`` describe, and hash as, the same scenario, and an int
    field given a numpy integer stores it as a Python int, which JSON can
    write."""
    cls = type(obj).__name__
    for f in fields(obj):
        value = getattr(obj, f.name)
        stored = _checked(f"{cls}.{f.name}", value, _SECTIONS.get(f.name, f.type), **f.metadata)
        if stored is not value:
            object.__setattr__(obj, f.name, stored)


def _points(value, name: str, area) -> tuple:
    """The point list ``value`` of the field ``name`` (``Class.field``) as a
    tuple of ``(x, y)`` float pairs, each on the map of the
    ``MobilityConfig`` ``area``."""
    try:
        ok = all(_finite_real(x) and _finite_real(y) for x, y in value)
    except (TypeError, ValueError):  # not a list of pairs
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a list of [x, y] pairs of finite numbers, got {value!r}")
    points = tuple((float(x), float(y)) for x, y in value)
    for x, y in points:
        if not (0 <= x <= area.map_width and 0 <= y <= area.map_height):
            raise ValueError(f"{name} must lie on the {area.map_width} x {area.map_height} "
                             f"map, got ({x}, {y})")
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
    pathloss_exponent: float = field(default=_PATHLOSS_EXPONENT, metadata={"above": 0})
    reference_distance: float = field(default=_REFERENCE_DISTANCE, metadata={"above": 0})
    reference_pathloss_db: float = _REFERENCE_PATHLOSS_DB
    snr_upper_ref: float = _DEFAULT_UPPER_REF
    snr_lower_ref: float = field(default=_DEFAULT_LOWER_REF, metadata={"above": 0})

    def __post_init__(self):
        _check_fields(self)
        if not self.snr_upper_ref > self.snr_lower_ref:
            raise ValueError(f"RadioParams.snr_upper_ref must be greater than snr_lower_ref "
                             f"= {self.snr_lower_ref!r}, got {self.snr_upper_ref!r}")


@dataclass(frozen=True)
class UtilityParams:
    """Shape of the per-user rate-to-utility mapping.

    A delivered rate ``d`` maps to ``g(d) = clip(w1 * log(w2 + d) / log(w3),
    clip_low, clip_high)`` and then rescales linearly onto [0, 1].
    ``aggregate`` selects whether a user's rate across its connected stations
    is averaged or summed before the mapping.
    """

    bandwidth: float = field(default=DEFAULT_BANDWIDTH, metadata={"above": 0})
    w1: float = 10.0
    w2: float = field(default=1.0, metadata={"above": 0})  # log(w2 + d) finite at d = 0
    w3: float = field(default=10.0, metadata={"above": 1})
    clip_low: float = -20.0
    clip_high: float = 20.0
    aggregate: str = field(default="mean", metadata={"choices": ("mean", "sum")})

    def __post_init__(self):
        _check_fields(self)
        if not self.clip_high > self.clip_low:
            raise ValueError(f"UtilityParams.clip_high must be greater than clip_low "
                             f"= {self.clip_low!r}, got {self.clip_high!r}")


@dataclass(frozen=True)
class MobilityConfig:
    """Random-waypoint motion settings.

    ``full`` roams the whole map.  ``limited`` confines each user to a disc
    around a per-user anchor: initial positions within ``init_radius``,
    waypoints within ``waypoint_radius``.  Anchors are resampled per episode
    unless pinned explicitly via ``anchors``.
    """

    variant: str = field(default="full", metadata={"choices": ("full", "limited")})
    speed: float = field(default=DEFAULT_SPEED, metadata={"low": 0})
    map_width: float = field(default=DEFAULT_MAP_SIZE, metadata={"above": 0})
    map_height: float = field(default=DEFAULT_MAP_SIZE, metadata={"above": 0})
    init_radius: float = field(default=20.0, metadata={"low": 0})
    waypoint_radius: float = field(default=10.0, metadata={"low": 0})
    anchors: tuple | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.anchors is not None:
            object.__setattr__(self, "anchors",
                               _points(self.anchors, "MobilityConfig.anchors", self))


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading of the channel amplitude H with E[H^2] = omega.

    ``none`` fixes H = 1, ``rayleigh`` draws from the Rayleigh law, and
    ``rician`` adds a line-of-sight component of strength ``k_factor``
    (k_factor = 0 reduces to Rayleigh).
    """

    kind: str = field(default="none", metadata={"choices": ("none", "rayleigh", "rician")})
    omega: float = field(default=1.0, metadata={"above": 0})
    k_factor: float = field(default=0.0, metadata={"low": 0})

    __post_init__ = _check_fields

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

    n_bs: int = field(default=3, metadata={"low": 1})
    n_ues: int = field(default=5, metadata={"low": 1})
    bs_positions: tuple = field(default_factory=_default_bs_positions)
    radio: RadioParams = field(default_factory=RadioParams)
    utility: UtilityParams = field(default_factory=UtilityParams)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    fading: FadingModel = field(default_factory=FadingModel)
    horizon: int = field(default=DEFAULT_HORIZON, metadata={"low": 1})
    threshold_step: float = field(default=DEFAULT_THRESHOLD_STEP,
                                  metadata={"above": 0, "high": 1})

    def __post_init__(self):
        _check_fields(self)
        m = self.mobility
        positions = _points(self.bs_positions, "NetworkConfig.bs_positions", m)
        object.__setattr__(self, "bs_positions", positions)
        if len(positions) != self.n_bs:
            raise ValueError(f"NetworkConfig.bs_positions must hold n_bs = {self.n_bs} "
                             f"points, got {len(positions)}")
        if m.anchors is not None and len(m.anchors) != self.n_ues:
            raise ValueError(f"NetworkConfig.mobility.anchors must hold n_ues = {self.n_ues} "
                             f"points, got {len(m.anchors)}")

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
    # Serialized before the file opens, so a failure leaves no file behind.
    text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
