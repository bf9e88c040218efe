"""Scenario configs: the JSON round trip and the checks at the config boundary."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsim.config import (FadingModel, MobilityConfig, NetworkConfig, RadioParams,
                            UtilityParams, default_config, load_config, parse_fading,
                            save_config)


def _positive():
    return st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


@st.composite
def configs(draw):
    variant = draw(st.sampled_from(["full", "limited"]))
    coord = st.floats(min_value=0.0, max_value=200.0)
    anchors = draw(st.none() | st.lists(st.tuples(coord, coord), min_size=5,
                                        max_size=5).map(tuple))
    kind = draw(st.sampled_from(["none", "rayleigh", "rician"]))
    fading = FadingModel(kind=kind, omega=draw(_positive()),
                         k_factor=draw(st.floats(min_value=0.0, max_value=100.0)))
    utility = UtilityParams(bandwidth=draw(_positive()),
                            aggregate=draw(st.sampled_from(["mean", "sum"])))
    return NetworkConfig(
        mobility=MobilityConfig(variant=variant, anchors=anchors),
        fading=fading, utility=utility,
        horizon=draw(st.integers(min_value=1, max_value=10 ** 6)),
        threshold_step=draw(st.floats(min_value=0.0, max_value=1.0,
                                      exclude_min=True)))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(cfg=configs())
    def test_canonical_json_and_file_round_trip(self, cfg, tmp_path_factory):
        assert NetworkConfig.from_dict(json.loads(cfg.canonical_json())) == cfg
        path = tmp_path_factory.mktemp("cfg") / "scenario.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        assert loaded.canonical_hash() == cfg.canonical_hash()


def _doc(**sections):
    """The default config document with the given sections updated."""
    doc = default_config().to_dict()
    for name, values in sections.items():
        doc[name] = {**doc[name], **values}
    return doc


class TestFromDictBoundary:
    @pytest.mark.parametrize("doc, message", [
        ([], "config must be a JSON object"),
        ({"network": []}, "config section 'network' must be a JSON object"),
        ({"radio": "x"}, "config section 'radio' must be a JSON object"),
        ({"radoi": {}}, "config has unknown key 'radoi'"),
        ({"radio": {"bogus": 1}}, "config section 'radio' has unknown key 'bogus'"),
        ({"episode": {"seed": 1}}, "config section 'episode' has unknown key 'seed'"),
    ])
    def test_structure_errors_name_section_and_key(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            NetworkConfig.from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("radio", "noise_dbm", math.nan),
        ("radio", "snr_upper_ref", math.inf),
        ("utility", "bandwidth", "600"),
        ("utility", "w1", True),
        ("mobility", "speed", "fast"),
        ("mobility", "map_width", -math.inf),
        ("fading", "omega", math.nan),
        ("fading", "k_factor", None),
        ("episode", "threshold_step", math.nan),
        ("network", "n_bs", 2.5),
        ("network", "n_ues", True),
        ("episode", "horizon", 10.5),
    ])
    def test_bad_numbers_rejected(self, section, key, value):
        with pytest.raises(ValueError, match=rf"\.{key} must be"):
            NetworkConfig.from_dict(_doc(**{section: {key: value}}))

    @pytest.mark.parametrize("anchors", [5, [[1.0]], [["a", 1.0]] * 5,
                                         [[math.nan, 1.0]] * 5, [[True, 1.0]] * 5])
    def test_bad_anchors_rejected(self, anchors):
        with pytest.raises(ValueError, match=r"^MobilityConfig\.anchors must be a list of "
                                             r"\[x, y\] pairs of finite numbers, got "):
            NetworkConfig.from_dict(_doc(mobility={"anchors": anchors}))

    def test_bad_station_positions_rejected(self):
        with pytest.raises(ValueError, match=r"^NetworkConfig\.bs_positions must be a list "
                                             r"of \[x, y\] pairs of finite numbers, got "):
            NetworkConfig.from_dict(_doc(network={"bs_positions": [[1.0, None]] * 3}))
        message = "NetworkConfig.bs_positions must lie on the 200.0 x 200.0 map, got (250.0, 1.0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkConfig.from_dict(_doc(network={"bs_positions": [[250.0, 1.0]] * 3}))

    def test_missing_keys_take_defaults(self):
        cfg = NetworkConfig.from_dict({"fading": {"kind": "rayleigh"},
                                       "episode": {"horizon": 7}, "radio": {}})
        assert cfg == NetworkConfig(fading=FadingModel(kind="rayleigh"), horizon=7)
        assert NetworkConfig.from_dict({}) == NetworkConfig()

    def test_integers_accepted_for_float_fields(self):
        cfg = NetworkConfig.from_dict(_doc(mobility={"speed": 3}))
        assert cfg.mobility.speed == 3

    def test_integer_float_field_hashes_like_its_float_spelling(self, tmp_path):
        # One scenario, one config hash: an int in a float field is stored as a float.
        as_int = NetworkConfig(mobility=MobilityConfig(speed=3), threshold_step=1)
        as_float = NetworkConfig(mobility=MobilityConfig(speed=3.0), threshold_step=1.0)
        assert type(as_int.mobility.speed) is float and type(as_int.threshold_step) is float
        assert as_int == as_float
        assert as_int.canonical_hash() == as_float.canonical_hash()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_doc(mobility={"speed": 3})))
        loaded = load_config(path)
        assert loaded.canonical_hash() == NetworkConfig.from_dict(
            _doc(mobility={"speed": 3.0})).canonical_hash()

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_counts_store_python_ints(self, integer, tmp_path):
        # One scenario, one config hash and one file: an int field given a
        # numpy integer stores a Python int, which JSON can write.
        given = NetworkConfig(n_ues=integer(5), horizon=integer(7))
        plain = NetworkConfig(n_ues=5, horizon=7)
        assert type(given.n_ues) is int and type(given.horizon) is int
        assert given == plain
        assert given.canonical_hash() == plain.canonical_hash()
        given_path, plain_path = tmp_path / "given.json", tmp_path / "plain.json"
        save_config(given, given_path)
        save_config(plain, plain_path)
        assert given_path.read_bytes() == plain_path.read_bytes()
        assert load_config(given_path) == plain

    def test_failed_save_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(NetworkConfig, "to_dict", lambda self: {"n_ues": object()})
        path = tmp_path / "scenario.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_config(NetworkConfig(), path)
        assert not path.exists()

    def test_direct_construction_checks_numbers(self):
        with pytest.raises(ValueError, match=r"FadingModel\.omega must be a finite number"):
            FadingModel(kind="rayleigh", omega=math.inf)
        with pytest.raises(ValueError, match=r"NetworkConfig\.horizon must be an integer"):
            NetworkConfig(horizon=2.0)

    @pytest.mark.parametrize("section, value, cls", [
        ("fading", "rayleigh", "FadingModel"),
        ("mobility", None, "MobilityConfig"),
        ("radio", {}, "RadioParams"),
        ("utility", FadingModel(), "UtilityParams"),
    ])
    def test_direct_construction_checks_section_types(self, section, value, cls):
        message = f"NetworkConfig.{section} must be a {cls}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkConfig(**{section: value})


# Every number and choice field of every section, with the bound declared
# beside its default; {} is a field that takes any finite value.
BOUNDS = {
    RadioParams: {"tx_power_dbm": {}, "noise_dbm": {}, "pathloss_exponent": {"above": 0},
                  "reference_distance": {"above": 0}, "reference_pathloss_db": {},
                  "snr_upper_ref": {}, "snr_lower_ref": {"above": 0}},
    UtilityParams: {"bandwidth": {"above": 0}, "w1": {}, "w2": {"above": 0},
                    "w3": {"above": 1}, "clip_low": {}, "clip_high": {},
                    "aggregate": {"choices": ("mean", "sum")}},
    MobilityConfig: {"variant": {"choices": ("full", "limited")}, "speed": {"low": 0},
                     "map_width": {"above": 0}, "map_height": {"above": 0},
                     "init_radius": {"low": 0}, "waypoint_radius": {"low": 0}},
    FadingModel: {"kind": {"choices": ("none", "rayleigh", "rician")},
                  "omega": {"above": 0}, "k_factor": {"low": 0}},
    NetworkConfig: {"n_bs": {"low": 1}, "n_ues": {"low": 1}, "horizon": {"low": 1},
                    "threshold_step": {"above": 0, "high": 1}},
}

# The class behind each section of the JSON document.
SECTION_CLASSES = {"radio": RadioParams, "utility": UtilityParams,
                   "mobility": MobilityConfig, "fading": FadingModel,
                   "network": NetworkConfig, "episode": NetworkConfig}

# One value past each bound, and the whole message it raises.
PAST_BOUNDS = [
    ("radio", "pathloss_exponent", 0,
     "RadioParams.pathloss_exponent must be greater than 0, got 0.0"),
    ("radio", "reference_distance", -1.5,
     "RadioParams.reference_distance must be greater than 0, got -1.5"),
    ("radio", "snr_lower_ref", 0.0, "RadioParams.snr_lower_ref must be greater than 0, got 0.0"),
    ("utility", "bandwidth", 0, "UtilityParams.bandwidth must be greater than 0, got 0.0"),
    ("utility", "w2", -1, "UtilityParams.w2 must be greater than 0, got -1.0"),
    ("utility", "w3", 1, "UtilityParams.w3 must be greater than 1, got 1.0"),
    ("utility", "aggregate", "max", "UtilityParams.aggregate must be one of mean, sum, got 'max'"),
    ("mobility", "variant", "partial",
     "MobilityConfig.variant must be one of full, limited, got 'partial'"),
    ("mobility", "speed", -0.5, "MobilityConfig.speed must be at least 0, got -0.5"),
    ("mobility", "map_width", 0, "MobilityConfig.map_width must be greater than 0, got 0.0"),
    ("mobility", "map_height", -200,
     "MobilityConfig.map_height must be greater than 0, got -200.0"),
    ("mobility", "init_radius", -1, "MobilityConfig.init_radius must be at least 0, got -1.0"),
    ("mobility", "waypoint_radius", -1e-9,
     "MobilityConfig.waypoint_radius must be at least 0, got -1e-09"),
    ("fading", "kind", "nakagami",
     "FadingModel.kind must be one of none, rayleigh, rician, got 'nakagami'"),
    ("fading", "kind", 3, "FadingModel.kind must be one of none, rayleigh, rician, got 3"),
    ("fading", "omega", 0, "FadingModel.omega must be greater than 0, got 0.0"),
    ("fading", "k_factor", -1, "FadingModel.k_factor must be at least 0, got -1.0"),
    ("network", "n_bs", 0, "NetworkConfig.n_bs must be at least 1, got 0"),
    ("network", "n_ues", -2, "NetworkConfig.n_ues must be at least 1, got -2"),
    ("episode", "horizon", 0, "NetworkConfig.horizon must be at least 1, got 0"),
    ("episode", "threshold_step", 0,
     "NetworkConfig.threshold_step must be greater than 0, got 0.0"),
    ("episode", "threshold_step", 1.5, "NetworkConfig.threshold_step must be at most 1, got 1.5"),
]

# A value on each inclusive bound; ``n_bs`` = 1 brings one station position.
ON_BOUNDS = [
    ("mobility", "speed", 0), ("mobility", "init_radius", 0),
    ("mobility", "waypoint_radius", 0), ("fading", "k_factor", 0),
    ("network", "n_bs", 1), ("network", "n_ues", 1), ("episode", "horizon", 1),
    ("episode", "threshold_step", 1),
]

# The four checks that relate two fields, and the whole message of each.
CROSS_FIELD = [
    ({"radio": {"snr_upper_ref": 1.0, "snr_lower_ref": 2.0}},
     "RadioParams.snr_upper_ref must be greater than snr_lower_ref = 2.0, got 1.0"),
    ({"utility": {"clip_low": 5, "clip_high": 5}},
     "UtilityParams.clip_high must be greater than clip_low = 5.0, got 5.0"),
    ({"network": {"n_bs": 2}}, "NetworkConfig.bs_positions must hold n_bs = 2 points, got 3"),
    ({"network": {"n_ues": 4}, "mobility": {"anchors": [[1.0, 1.0]] * 5}},
     "NetworkConfig.mobility.anchors must hold n_ues = 4 points, got 5"),
]


def _construct(sections):
    """``NetworkConfig`` built directly, from each section's own class."""
    kwargs = {}
    for name, values in sections.items():
        if SECTION_CLASSES[name] is NetworkConfig:
            kwargs.update(values)
        else:
            kwargs[name] = SECTION_CLASSES[name](**values)
    return NetworkConfig(**kwargs)


class TestBounds:
    def test_every_bound_is_declared_beside_its_field(self):
        # A dropped bound, or a new number field with no decided range, fails here.
        for cls, want in BOUNDS.items():
            got = {f.name: dict(f.metadata) for f in fields(cls)
                   if f.type in ("int", "float", "str") or f.metadata}
            assert got == want, cls.__name__

    def test_every_bound_has_a_case_past_it(self):
        bounded = {(cls, name, kind) for cls, table in BOUNDS.items()
                   for name, bound in table.items() for kind in bound}
        kinds = {"greater than": "above", "at least": "low", "at most": "high",
                 "one of": "choices"}
        covered = {(SECTION_CLASSES[section], key, kind)
                   for section, key, _, message in PAST_BOUNDS
                   for words, kind in kinds.items() if f" must be {words} " in message}
        assert covered == bounded

    @pytest.mark.parametrize("section, key, value, message", PAST_BOUNDS)
    def test_value_past_its_bound_names_field_bound_and_value(self, section, key, value,
                                                              message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SECTION_CLASSES[section](**{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkConfig.from_dict(_doc(**{section: {key: value}}))

    @pytest.mark.parametrize("section, key, value", ON_BOUNDS)
    def test_value_on_an_inclusive_bound_is_accepted(self, section, key, value):
        sections = {section: {key: value}}
        if key == "n_bs":
            sections["network"]["bs_positions"] = [[100.0, 100.0]]
        cfg = NetworkConfig.from_dict(_doc(**sections))
        assert cfg == _construct(sections)
        held = cfg if SECTION_CLASSES[section] is NetworkConfig else getattr(cfg, section)
        assert getattr(held, key) == value

    @pytest.mark.parametrize("sections, message", CROSS_FIELD,
                             ids=["snr-refs", "clips", "stations", "anchors"])
    def test_cross_field_check_names_both_fields_and_values(self, sections, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _construct(sections)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkConfig.from_dict(_doc(**sections))


class TestParseFading:
    @pytest.mark.parametrize("spec", ["rician:nan", "rician:inf", "rician:-inf"])
    def test_non_finite_k_rejected(self, spec):
        with pytest.raises(ValueError, match="k_factor must be a finite number"):
            parse_fading(spec)

    @pytest.mark.parametrize("spec, want", [
        ("none", FadingModel()),
        (" Rayleigh ", FadingModel(kind="rayleigh")),
        ("RICIAN:3", FadingModel(kind="rician", k_factor=3.0)),
        ("rician:0.5", FadingModel(kind="rician", k_factor=0.5)),
    ])
    def test_documented_forms(self, spec, want):
        assert parse_fading(spec) == want

    @pytest.mark.parametrize("spec", ["ricianx:3", "rician_k:2", "rician", "rician:",
                                      "rician:abc", "rician:3:4", "weibull", "",
                                      "none:1", "rayleigh:2"])
    def test_other_strings_rejected_naming_the_spec(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_fading(spec)

    @pytest.mark.parametrize("spec", [3, None, FadingModel()])
    def test_non_string_rejected(self, spec):
        message = f"fading spec must be a string, got {spec!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_fading(spec)

    def test_default_config_refuses_a_non_string_spec(self):
        with pytest.raises(ValueError, match=r"^fading spec must be a string, got 3$"):
            default_config(fading=3)
