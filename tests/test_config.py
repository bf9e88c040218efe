"""Scenario configs: the JSON round trip and the checks at the config boundary."""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from cellsim.config import (FadingModel, MobilityConfig, NetworkConfig, UtilityParams,
                            default_config, load_config, parse_fading, save_config)


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
        with pytest.raises(ValueError, match="anchor positions must be"):
            NetworkConfig.from_dict(_doc(mobility={"anchors": anchors}))

    def test_bad_station_positions_rejected(self):
        with pytest.raises(ValueError, match="station positions must be"):
            NetworkConfig.from_dict(_doc(network={"bs_positions": [[1.0, None]] * 3}))
        with pytest.raises(ValueError, match=r"station \(250.0, 1.0\) outside map"):
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
