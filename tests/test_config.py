"""Flat config parsing: registry defaults, round-trip, and validation."""
import math

import pytest

from songoku import combinators, scheduler, sketch
from songoku.config import (
    EXPERIMENTS,
    REGISTRY,
    ConfigError,
    defaults,
    emit_config,
    parse_config,
    parse_kv_text,
)


class TestDefaults:
    def test_defaults_pass_their_own_validation(self):
        cfg = parse_config()
        assert cfg == defaults()

    def test_every_registry_default_validates(self):
        for field in REGISTRY.values():
            field.validate(field.default)          # must not raise

    def test_experiment_choices_cover_registry(self):
        assert REGISTRY["experiment"].choices == EXPERIMENTS

    def test_mode_choices_are_the_owning_modules_tuples(self):
        assert REGISTRY["combinator_mode"].choices is combinators.MODES
        assert REGISTRY["sketch_mode"].choices is sketch.SKETCH_MODES
        assert REGISTRY["eta_rule"].choices is scheduler.ETA_RULES
        assert REGISTRY["sketch_mode"].range_text() == (
            "one of dense, jl, fd, edge_sample, incremental"
        )


class TestRoundTrip:
    def test_emit_parse_identity_on_defaults(self, tmp_path):
        text = emit_config(defaults())
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert parse_config(str(path)) == defaults()

    def test_floats_round_trip_via_repr(self, tmp_path):
        cfg = defaults()
        cfg["beta"] = 0.1 + 0.2                    # 0.30000000000000004
        cfg["eta"] = 1e-17
        cfg["sigma"] = 1.0 / 3.0
        path = tmp_path / "cfg.txt"
        path.write_text(emit_config(cfg))
        parsed = parse_config(str(path))
        assert parsed["beta"] == cfg["beta"]
        assert parsed["eta"] == cfg["eta"]
        assert parsed["sigma"] == cfg["sigma"]

    def test_emit_covers_every_kind(self, tmp_path):
        cfg = defaults()
        cfg["permute_classes"] = True
        cfg["anneal_horizon"] = 128
        cfg["pair_budget"] = None
        cfg["bench_K_values"] = (2, 5)
        path = tmp_path / "cfg.txt"
        path.write_text(emit_config(cfg))
        assert parse_config(str(path)) == cfg

    def test_emit_rejects_unknown_key(self):
        cfg = defaults()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError):
            emit_config(cfg)


class TestKvText:
    def test_comments_and_blanks_skipped(self):
        raw = parse_kv_text("# header\n\n  seed = 3\n   # trailing\nK=5\n")
        assert raw == {"seed": "3", "K": "5"}

    def test_missing_equals_names_the_line(self):
        with pytest.raises(ConfigError) as err:
            parse_kv_text("seed = 1\njust words\n")
        assert err.value.field == "line 2"

    def test_value_may_contain_equals(self):
        # partition on the first '=' only
        assert parse_kv_text("experiment = a=b") == {"experiment": "a=b"}


class TestFieldValidation:
    def test_unknown_file_key_lists_known_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.field == "not_a_key"
        assert "beta" in str(err.value) and "sketch_mode" in str(err.value)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"nope": 1})
        assert err.value.field == "nope"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", -1),              # low = 0 inclusive
            ("K", 1),                  # low = 2
            ("d", 1),
            ("steps", -1),
            ("R", 0),
            ("beta", 1.0),             # high-open at 1
            ("beta", -0.1),
            ("tau_star", 0.0),         # low-open at 0
            ("tau_star", 1.0001),
            ("eta", 0.0),              # low-open
            ("anneal_a", 0.0),
            ("sigma", -0.5),
            ("gamma", 0.0),
            ("gamma", 1.0),
            ("m0", 0.0),
            ("groups", 1),
            ("trials", 0),
            ("delta", 1.0),
            ("scale_floor", 0.0),
            ("sketch_r", 0),
            ("pair_budget", 0),        # opt_int honours low when not none
            ("change_threshold", -1.0),
            ("rebuild_every", 0),
            ("repeats", 0),
            ("bench_steps", 0),
        ],
    )
    def test_out_of_range_overrides_name_the_field(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={key: value})
        assert err.value.field == key
        assert "range" in str(err.value)

    @pytest.mark.parametrize("key,value", [("beta", 0.0), ("tau_star", 1.0), ("steps", 0)])
    def test_boundary_values_that_are_legal(self, key, value):
        assert parse_config(overrides={key: value})[key] == value

    @pytest.mark.parametrize(
        "key,value",
        [
            ("experiment", "nonsense"),
            ("eta_rule", "linear"),
            ("combinator_mode", "clip"),
            ("sketch_mode", "random"),
        ],
    )
    def test_bad_choices_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={key: value})
        assert err.value.field == key
        assert "one of" in str(err.value)

    def test_non_finite_float_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"sigma": math.inf})
        assert "finite" in str(err.value)


class TestParsingKinds:
    def test_bool_accepts_only_lowercase_true_false(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("permute_classes = true\n")
        assert parse_config(str(path))["permute_classes"] is True
        path.write_text("permute_classes = True\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.field == "permute_classes"

    def test_int_list_parse_and_element_range(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bench_K_values = 2, 5, 9\n")
        assert parse_config(str(path))["bench_K_values"] == (2, 5, 9)
        path.write_text("bench_K_values = 2, 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "element 0" in str(err.value)
        path.write_text("bench_K_values = ,\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_opt_int_none_and_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("anneal_horizon = none\nflip_time = 37\n")
        cfg = parse_config(str(path))
        assert cfg["anneal_horizon"] is None
        assert cfg["flip_time"] == 37

    def test_garbage_number_reports_kind(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("beta = fast\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "cannot parse" in str(err.value) and "float" in str(err.value)

    def test_string_overrides_parsed_through_field(self):
        cfg = parse_config(overrides={"beta": "0.25", "K": "11"})
        assert cfg["beta"] == 0.25 and cfg["K"] == 11

    def test_none_overrides_are_skipped(self):
        cfg = parse_config(overrides={"beta": None, "K": None})
        assert cfg["beta"] == defaults()["beta"]


class TestCrossValidation:
    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"T_warm": 512, "steps": 512})
        assert err.value.field == "T_warm"

    def test_zero_step_run_skips_warmup_check(self):
        cfg = parse_config(overrides={"steps": 0, "T_warm": 0})
        assert cfg["steps"] == 0

    def test_single_row_sketch_rejected_at_parse_time(self):
        # Frequent Directions needs ell >= 2; this used to fail mid-run
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"sketch_mode": "fd", "sketch_ell": 1})
        assert err.value.field == "sketch_ell"
        assert "[2, inf)" in str(err.value)
        assert parse_config(overrides={"sketch_ell": 2})["sketch_ell"] == 2

    def test_groups_cannot_exceed_tasks(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"K": 2, "groups": 3})
        assert err.value.field == "groups"

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("K = 4\nbeta = 0.5\n")
        cfg = parse_config(str(path), overrides={"beta": 0.75})
        assert cfg["K"] == 4 and cfg["beta"] == 0.75
