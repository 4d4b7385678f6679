"""Configuration parsing, defaults, overrides, and the hard-error contract."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boson_decay import SCENARIOS, ConfigError, build_config, cli, parse_config
from boson_decay.cli import main
from boson_decay.config import MEMORY_LIMIT_BYTES, SCHEMA, _estimated_bytes

MINIMAL_FOCK = """
scenario = fock-decay
gamma = 1.0
omega_b = 100
fock_n = 2
t_max = 5
n_steps = 100
"""

THERMAL_BASE = """
scenario = thermal
gamma = 1.0
omega_b = 800
n_modes = 100
half_bandwidth = 80
t_max = 5
n_steps = 10
samples = 50
seed = 7
"""


class TestParsing:
    def test_minimal_fock_decay_config(self):
        config = parse_config(MINIMAL_FOCK)
        assert config.scenario == "fock-decay"
        assert config.gamma == 1.0
        assert config.fock_n == 2
        assert config.n_steps == 100

    def test_defaults_are_recorded(self):
        config = parse_config(MINIMAL_FOCK)
        assert "alpha_re" in config.defaults_applied
        assert "output" in config.defaults_applied
        assert config.output == "-"
        assert config.format == "csv"

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config(MINIMAL_FOCK + "\n# a comment\n\nalpha_re = 2.0 # inline\n")
        assert config.alpha_re == 2.0

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            parse_config(MINIMAL_FOCK + "gama = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL_FOCK + "gamma = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("scenario fock-decay\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="no value"):
            parse_config("scenario =\n")

    def test_type_errors_are_reported(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_config(MINIMAL_FOCK.replace("n_steps = 100", "n_steps = 2.5"))
        with pytest.raises(ConfigError, match="expects float"):
            parse_config(MINIMAL_FOCK.replace("gamma = 1.0", "gamma = fast"))

    def test_integer_like_floats_accepted_for_int_keys(self):
        config = parse_config(MINIMAL_FOCK.replace("n_steps = 100", "n_steps = 100.0"))
        assert config.n_steps == 100


class TestValidation:
    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 't_max'"):
            parse_config(MINIMAL_FOCK.replace("t_max = 5\n", ""))

    def test_thermal_requires_beta(self):
        with pytest.raises(ConfigError, match="thermal requires beta"):
            parse_config(THERMAL_BASE)

    def test_thermal_requires_samples(self):
        text = THERMAL_BASE.replace("samples = 50\n", "") + "beta = 0.001\n"
        with pytest.raises(ConfigError, match="thermal requires samples"):
            parse_config(text)

    def test_sampling_requires_seed(self):
        text = THERMAL_BASE.replace("seed = 7\n", "") + "beta = 0.001\n"
        with pytest.raises(ConfigError, match="requires seed"):
            parse_config(text)

    def test_n_steps_range_error_names_bound(self):
        with pytest.raises(ConfigError, match="at least 2"):
            parse_config(MINIMAL_FOCK.replace("n_steps = 100", "n_steps = 1"))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(MINIMAL_FOCK.replace("fock-decay", "quench"))

    def test_nonpositive_gamma(self):
        with pytest.raises(ConfigError, match="gamma must be positive"):
            parse_config(MINIMAL_FOCK.replace("gamma = 1.0", "gamma = 0"))

    def test_bath_scenarios_require_bath_keys(self):
        text = "scenario = wwa-validate\ngamma = 1\nomega_b = 100\nt_max = 5\nn_steps = 10\n"
        with pytest.raises(ConfigError, match="wwa-validate requires n_modes"):
            parse_config(text)

    def test_band_center_defaults_to_system_frequency(self):
        config = parse_config(THERMAL_BASE + "beta = 0.001\n")
        assert config.band_center == config.omega_b
        assert "band_center" in config.defaults_applied

    def test_oracle_compare_mode_limit(self):
        text = (
            "scenario = oracle-compare\ngamma = 1\nomega_b = 10\nfock_n = 2\n"
            "t_max = 2\nn_steps = 5\nn_modes = 6\nhalf_bandwidth = 2\n"
        )
        with pytest.raises(ConfigError, match="at most 4"):
            parse_config(text)

    def test_excited_mode_bounds(self):
        text = (
            "scenario = excited-bath\ngamma = 1\nomega_b = 10\nt_max = 2\nn_steps = 5\n"
            "n_modes = 4\nhalf_bandwidth = 2\nexcited_mode = 4\n"
        )
        with pytest.raises(ConfigError, match="excited_mode"):
            parse_config(text)

    def test_format_validation(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(MINIMAL_FOCK + "format = yaml\n")


WWA_BASE = """
scenario = wwa-validate
gamma = 1.0
omega_b = 100
n_modes = 50
half_bandwidth = 20
t_max = 5
n_steps = 10
"""


# A small thermal run; with beta = 1e-300, or with alpha = 1e154, its Monte Carlo
# squares overflow (it exited 0 with NaN stderr rows, or 1 with a ValueError).
THERMAL_CLI = """
scenario = thermal
gamma = 1
omega_b = 100
half_bandwidth = 20
n_modes = 5
samples = 10
seed = 1
t_max = 1
n_steps = 3
"""


class TestBoundary:
    """Non-finite and unphysical values stop at the config, not deep in a solver."""

    @pytest.mark.parametrize(
        "base, overrides, match",
        [
            (MINIMAL_FOCK, {"t_max": math.inf}, "'t_max' must be finite"),
            (MINIMAL_FOCK, {"alpha_re": math.nan}, "'alpha_re' must be finite"),
            (WWA_BASE, {"band_center": math.nan}, "'band_center' must be finite"),
            (WWA_BASE, {"gamma": math.inf}, "'gamma' must be finite"),
            (THERMAL_BASE + "beta = 0.001\n", {"band_center": 50.0}, "above zero frequency"),
            (THERMAL_BASE, {"beta": -math.inf}, "'beta' must be finite"),
            (THERMAL_BASE, {"beta": math.nan}, "'beta' must be finite"),
            (MINIMAL_FOCK, {"n_steps": "inf"}, "expects int"),
            (THERMAL_BASE + "beta = 0.001\n", {"seed": -1}, "seed must be nonnegative"),
            (THERMAL_BASE + "beta = 0.001\n", {"alpha_re": 1e200}, r"\|alpha\|\^2 .* finite float"),
            (WWA_BASE, {"lambda_im": 1e154, "alpha_im": 1e154}, r"\|lambda\|\^2 .* finite"),
            (WWA_BASE, {"half_bandwidth": 1e-300}, "cannot resolve the band"),
            (WWA_BASE, {"omega_b": 1e300, "band_center": 1e300}, "cannot resolve the band"),
            (WWA_BASE, {"gamma": 1e300, "half_bandwidth": 1e300}, "cannot resolve the band"),
            (THERMAL_CLI, {"beta": 1e-300}, "squares per-sample occupations"),
            (THERMAL_CLI, {"beta": 1.0, "alpha_re": 1e154}, "squares per-sample occupations"),
        ],
        ids=[
            "t_max-inf",
            "alpha_re-nan",
            "band_center-nan",
            "gamma-inf",
            "thermal-band-below-zero",
            "beta-minus-inf",
            "beta-nan",
            "int-key-inf",
            "seed-negative",
            "alpha-squared-overflows",
            "labels-squared-sum-overflows",
            "band-below-grid-resolution",
            "band-beyond-grid-resolution",
            "couplings-overflow",
            "thermal-occupations-squared-overflow",
            "thermal-alpha-fourth-power-overflows",
        ],
    )
    def test_rejected(self, base, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(base, overrides=overrides)

    def test_zero_temperature_beta_parses(self):
        config = parse_config(THERMAL_BASE + "beta = inf\n")
        assert config.beta == math.inf

    def test_cli_reports_config_error(self, capsys):
        code = main(
            [
                "--scenario", "coherent-decay", "--gamma", "1", "--omega-b", "50",
                "--t-max", "inf", "--n-steps", "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert "t_max" in record["message"]


BENCHMARK_CONFIGS = {
    "wwa-2000x201": WWA_BASE.replace("n_modes = 50", "n_modes = 2000").replace(
        "n_steps = 10", "n_steps = 201"
    ),
    "thermal-800x1e4": THERMAL_BASE.replace("n_modes = 100", "n_modes = 800").replace(
        "samples = 50", "samples = 10000"
    )
    + f"beta = {math.log(2.0) / 800.0}\n",
    "oracle-fock10": WWA_BASE.replace("wwa-validate", "oracle-compare").replace(
        "n_modes = 50", "n_modes = 4"
    )
    + "fock_n = 10\nbeta = 0.2\n",
    "fock-laws-200x2001": MINIMAL_FOCK.replace("fock_n = 2", "fock_n = 200").replace(
        "n_steps = 100", "n_steps = 2001"
    ),
}


class TestResourceGuard:
    """Runs whose arrays would not fit stop at the config with the estimate named."""

    @pytest.mark.parametrize(
        "base, overrides",
        [
            (WWA_BASE, {"n_modes": 10_000_000}),
            (MINIMAL_FOCK, {"fock_n": 10_000, "n_steps": 10_000}),
            (WWA_BASE, {"n_steps": 10_000_000}),
            (BENCHMARK_CONFIGS["oracle-fock10"], {"fock_n": 30}),
            (BENCHMARK_CONFIGS["oracle-fock10"], {"fock_n": 11, "n_steps": 100_000}),
            (BENCHMARK_CONFIGS["oracle-fock10"], {"n_modes": 1, "fock_n": 2000, "n_steps": 201}),
        ],
        ids=[
            "n_modes", "n_steps-x-fock_n", "n_steps-x-n_modes", "oracle-sector",
            "oracle-sector-x-n_steps", "oracle-density",
        ],
    )
    def test_oversize_rejected_without_allocating(self, base, overrides):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"about [0-9.e+]+ GiB .* over the 4 GiB limit"):
                parse_config(base, overrides=overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "base, overrides",
        [
            (THERMAL_BASE, {"n_modes": 1000, "samples": 1000, "beta": 0.001}),
            (MINIMAL_FOCK, {"fock_n": 10, "n_steps": 10_000}),
            (WWA_BASE, {"n_modes": 30_000, "n_steps": 21}),
            (THERMAL_BASE, {"n_modes": 1000, "samples": 1_000_000, "beta": 0.001}),
            (THERMAL_BASE, {"n_modes": 800, "samples": 1_000_000, "beta": 0.001}),
        ],
        ids=["samples", "fock_n", "n_modes", "samples-x-n_modes", "samples-x-800-modes"],
    )
    def test_same_sizes_below_limit_pass(self, base, overrides):
        parse_config(base, overrides=overrides)

    @pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
    def test_benchmark_configs_pass(self, name):
        config = parse_config(BENCHMARK_CONFIGS[name])
        assert _estimated_bytes(config.as_dict()) < MEMORY_LIMIT_BYTES / 16

    def test_oracle_guard_counts_the_sector_not_the_product_basis(self, capsys, tmp_path):
        """fock_n = 11 at N = 4: one sector of dimension C(15, 4) = 1365, not 12^5 states."""
        output = tmp_path / "oracle.csv"
        code = main(
            [
                "--scenario", "oracle-compare", "--gamma", "1", "--omega-b", "100",
                "--n-modes", "4", "--half-bandwidth", "20", "--fock-n", "11", "--t-max", "5",
                "--n-steps", "201", "--output", str(output),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().err.splitlines()[0])["summary"]
        assert summary["max_population_deviation"] <= 1e-8

    def test_cli_reports_oversize_run(self, capsys):
        code = main(
            [
                "--scenario", "wwa-validate", "--gamma", "1", "--omega-b", "100",
                "--half-bandwidth", "20", "--t-max", "5", "--n-steps", "201",
                "--n-modes", "10000000",
            ]
        )
        assert code == 1
        record = _error_record(capsys)
        assert record["error"] == "ConfigError"
        assert "GiB" in record["message"]


COHERENT_FLAGS = [
    "--scenario", "coherent-decay", "--gamma", "1", "--omega-b", "50", "--t-max", "2",
    "--n-steps", "5",
]


def _error_record(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestCliFlags:
    """Flags are the schema keys; their raw strings are coerced exactly as in a file."""

    def test_every_schema_key_is_a_flag(self):
        options = {
            option for action in cli._build_parser()._actions for option in action.option_strings
        }
        assert {f"--{key.replace('_', '-')}" for key in SCHEMA} <= options

    @pytest.mark.parametrize(
        "flag, value, match",
        [
            ("--n-steps", "3.5", "'n_steps' expects int"),
            ("--gamma", "abc", "'gamma' expects float"),
            ("--scenario", "bogus", "unknown scenario 'bogus'"),
        ],
    )
    def test_bad_flag_gives_config_error_record(self, capsys, flag, value, match):
        assert main(COHERENT_FLAGS + [flag, value]) == 1
        record = _error_record(capsys)
        assert record["error"] == "ConfigError"
        assert match in record["message"]

    def test_integral_float_flag_behaves_as_in_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL_FOCK.replace("n_steps = 100", "n_steps = 3.0"))
        assert main(["--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        flags = ["--scenario", "fock-decay", "--gamma", "1.0", "--omega-b", "100"]
        assert main(flags + ["--fock-n", "2", "--t-max", "5", "--n-steps", "3.0"]) == 0
        from_flags = capsys.readouterr().out
        assert from_flags == from_file
        assert len(from_flags.splitlines()) == 4

    def test_dump_bath_checked_before_the_run(self, capsys, monkeypatch, tmp_path):
        def run_scenario(config):
            raise AssertionError("the scenario ran before --dump-bath was checked")

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        bath_path = tmp_path / "bath.csv"
        assert main(COHERENT_FLAGS + ["--dump-bath", str(bath_path)]) == 1
        record = _error_record(capsys)
        assert record["error"] == "ConfigError"
        assert "dump-bath requires n_modes and half_bandwidth" in record["message"]
        assert not bath_path.exists()


class TestOverrides:
    def test_integer_strings_parse_exactly(self):
        seed = 2**53 + 1  # not representable as a float
        config = parse_config(MINIMAL_FOCK, overrides={"seed": str(seed)})
        assert config.seed == seed

    def test_flags_override_document(self):
        config = parse_config(MINIMAL_FOCK, overrides={"gamma": 2.5, "fock_n": 3})
        assert config.gamma == 2.5
        assert config.fock_n == 3

    def test_none_overrides_ignored(self):
        config = parse_config(MINIMAL_FOCK, overrides={"gamma": None})
        assert config.gamma == 1.0

    def test_overrides_validated_like_document_values(self):
        with pytest.raises(ConfigError, match="gamma must be positive"):
            parse_config(MINIMAL_FOCK, overrides={"gamma": -1.0})

    def test_alpha_property(self):
        config = parse_config(MINIMAL_FOCK, overrides={"alpha_re": 0.5, "alpha_im": -0.25})
        assert config.alpha == 0.5 - 0.25j

    def test_effective_dict_round_trips_all_keys(self):
        config = parse_config(MINIMAL_FOCK)
        effective = config.as_dict()
        assert effective["scenario"] == "fock-decay"
        assert set(effective) >= {"gamma", "omega_b", "t_max", "n_steps", "output", "format"}


def _positive(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Key-value documents that every scenario accepts: required keys plus optional extras."""
    scenario = draw(st.sampled_from(SCENARIOS))
    omega_b = draw(_positive(1e-3, 1e3))
    values = {
        "scenario": scenario,
        "gamma": draw(_positive(1e-6, 1e3)),
        "omega_b": omega_b,
        "t_max": draw(_positive(1e-6, 1e3)),
        "n_steps": draw(st.integers(2, 50)),
    }
    optional = {
        "alpha_re": st.floats(-10, 10), "alpha_im": st.floats(-10, 10),
        "lambda_re": st.floats(-10, 10), "lambda_im": st.floats(-10, 10),
        "seed": st.integers(-(2**40), 2**40), "format": st.sampled_from(["csv", "json"]),
        "output": st.sampled_from(["-", "out.csv", "a b/c.json"]),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        values[key] = draw(optional[key])
    if scenario in ("fock-decay", "oracle-compare"):
        # At N = 4 the oracle's fock_n = 20 sector needs 4.2 GiB; fock_n = 19 needs 2.9.
        values["fock_n"] = draw(st.integers(0, 19 if scenario == "oracle-compare" else 20))
    if scenario in ("excited-bath", "thermal", "wwa-validate", "oracle-compare"):
        values["n_modes"] = draw(st.integers(1, 4 if scenario == "oracle-compare" else 60))
        center = draw(st.one_of(st.none(), _positive(1e-3, 1e3)))
        if center is not None:
            values["band_center"] = center
        # At most half the center: every mode stays above zero frequency, as beta needs.
        values["half_bandwidth"] = draw(_positive(1e-6, 0.5)) * (center or omega_b)
        if scenario == "excited-bath":
            values["excited_mode"] = draw(st.integers(0, values["n_modes"] - 1))
    if scenario == "thermal" or draw(st.booleans()):
        values["beta"] = draw(st.one_of(_positive(1e-6, 1e3), st.just(math.inf)))
    if scenario == "thermal":
        values["samples"] = draw(st.integers(1, 1000))
        values["seed"] = draw(st.integers(0, 2**32))
    return values


class TestEffectiveDictProperty:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_as_dict_is_a_fixed_point(self, values):
        """Building from the non-None entries of as_dict() gives as_dict() back exactly."""
        effective = build_config(values).as_dict()
        given_back = {key: value for key, value in effective.items() if value is not None}
        assert build_config(given_back).as_dict() == effective
        document = "".join(f"{key} = {value}\n" for key, value in given_back.items())
        assert parse_config(document).as_dict() == effective
