"""Configuration parsing, defaults, overrides, and the hard-error contract."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boson_decay
from boson_decay import SCENARIOS, ConfigError, build_config, cli, parse_config, run_scenario
from boson_decay.cli import main
from boson_decay.config import MEMORY_LIMIT_BYTES, SCHEMA, _estimated_bytes, parse_document
from boson_decay.runner import report_from_csv

MINIMAL_FOCK = """
scenario = fock-decay
gamma = 1.0
omega_b = 100
fock_n = 2
t_max = 5
n_steps = 100
"""

# An integer key past float64, 10^400: coerced exactly, it must not overflow a float later.
HUGE = "1" + "0" * 400

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

    def test_oracle_mode_limit_comes_before_the_band(self):
        """The limit is checked while the run is sized, before a band it cannot resolve is built."""
        text = (
            "scenario = oracle-compare\ngamma = 1e-300\nomega_b = 1\nfock_n = 1\n"
            "t_max = 1\nn_steps = 3\nn_modes = 38\nhalf_bandwidth = 1e-10\n"
        )
        with pytest.raises(ConfigError, match="at most 4 bath modes"):
            parse_config(text)
        with pytest.raises(ConfigError, match="38 midpoint modes cannot resolve the band"):
            parse_config(text.replace("oracle-compare", "wwa-validate"))

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
            (WWA_BASE, {"gamma": 1e300, "half_bandwidth": 1e10, "omega_b": 1e11}, "cannot resolve the band"),
            (THERMAL_CLI, {"beta": 1e-300}, "squares per-sample occupations"),
            (THERMAL_CLI, {"beta": 1.0, "alpha_re": 1e154}, "squares per-sample occupations"),
            (MINIMAL_FOCK, {"omega_b": 0.0}, "omega_b must be positive"),
            (MINIMAL_FOCK, {"t_max": -1.0}, "t_max must be positive"),
            (MINIMAL_FOCK, {"fock_n": -1}, "fock_n.* must be nonnegative"),
            (WWA_BASE, {"n_modes": 0}, "n_modes must be at least 1"),
            (WWA_BASE.replace("wwa-validate", "oracle-compare"), {"n_modes": -3, "fock_n": 1},
             "n_modes must be at least 1"),
            (WWA_BASE, {"half_bandwidth": 0.0}, "half_bandwidth must be positive"),
            (THERMAL_BASE, {"beta": 0.0}, "beta must be positive"),
            (THERMAL_BASE, {"beta": -1.0}, "beta must be positive"),
            (THERMAL_BASE + "beta = 0.001\n", {"samples": 0}, "samples must be at least 1"),
            ({**parse_document(MINIMAL_FOCK), "temperature": 1.0}, {}, "unknown key 'temperature'"),
            (MINIMAL_FOCK, {"temperature": 1.0}, "unknown key 'temperature'"),
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
            "coupling-squares-overflow",
            "thermal-occupations-squared-overflow",
            "thermal-alpha-fourth-power-overflows",
            "omega_b-zero",
            "t_max-negative",
            "fock_n-negative",
            "n_modes-zero",
            "oracle-n_modes-negative",
            "half_bandwidth-zero",
            "beta-zero",
            "beta-negative",
            "samples-zero",
            "unknown-key-value",
            "unknown-key-override",
        ],
    )
    def test_rejected(self, base, overrides, match):
        """``base`` is a document, or the values it would parse to."""
        values = parse_document(base) if isinstance(base, str) else base
        with pytest.raises(ConfigError, match=match):
            build_config(values, overrides)

    @pytest.mark.parametrize("margin", [0.999, 1.001], ids=["inside", "outside"])
    @pytest.mark.parametrize(
        "overrides",
        [{"n_steps": 5}, {"n_modes": 800, "samples": 10_000, "n_steps": 21}],
        ids=["direct-draw", "factored-draw"],
    )
    def test_squared_occupation_bound(self, overrides, margin):
        """2|alpha|^2 + 392 N max_j n_j against sqrt(max_float / (2 samples)), on both sides.

        At beta = 1 every n_j is below 1e-34, so |alpha| alone decides, whether
        the labels are drawn directly (T >= N here) or the branch covariance
        is factored (T < N).
        """
        config = {**parse_document(THERMAL_CLI), **overrides, "beta": 1.0}
        alpha = math.sqrt(margin * math.sqrt(sys.float_info.max / (2 * int(config["samples"]))) / 2)
        values = {**config, "alpha_re": alpha}
        if margin < 1:
            assert build_config(values).alpha_re == alpha
        else:
            with pytest.raises(ConfigError, match="squares per-sample occupations"):
                build_config(values)

    @pytest.mark.parametrize("margin", [0.999, 1.001], ids=["inside", "outside"])
    @pytest.mark.parametrize("scenario", ["thermal", "oracle-compare"])
    def test_occupation_bound(self, scenario, margin):
        """The largest occupation, at the lowest bath mode, against 1/eps on both sides."""
        values = {**parse_document(THERMAL_CLI), "scenario": scenario, "n_modes": 4, "fock_n": 1}
        lowest = 100.0 - 20.0 + 40.0 / 8  # the lowest of four midpoint modes on [80, 120]
        beta = math.log1p(sys.float_info.epsilon / margin) / lowest
        values["beta"] = beta
        if margin < 1:
            assert build_config(values).beta == beta
        else:
            with pytest.raises(ConfigError, match="near-infinite thermal occupations"):
                build_config(values)

    @pytest.mark.parametrize(
        "flags, match",
        [
            (
                ["--scenario", "wwa-validate", "--gamma", "1e-300", "--omega-b", "1",
                 "--half-bandwidth", "1e-10", "--n-modes", "38"],
                "38 midpoint modes cannot resolve the band",
            ),
            (
                ["--scenario", "oracle-compare", "--gamma", "1", "--omega-b", "100",
                 "--half-bandwidth", "20", "--n-modes", "2", "--fock-n", "1", "--beta", "1e-320"],
                "infinite thermal occupations",
            ),
            (
                ["--scenario", "oracle-compare", "--gamma", "1", "--omega-b", "100",
                 "--half-bandwidth", "20", "--n-modes", "2", "--fock-n", "1", "--beta", "1e-300"],
                "near-infinite thermal occupations",
            ),
            (
                ["--scenario", "thermal", "--gamma", "1", "--omega-b", "100", "--half-bandwidth", "20",
                 "--n-modes", "5", "--beta", "1e-152", "--samples", "10", "--seed", "1"],
                "near-infinite thermal occupations",
            ),
            (
                ["--scenario", "thermal", "--gamma", "1", "--omega-b", "0.1", "--band-center", "0.1",
                 "--half-bandwidth", "0.05", "--n-modes", "5", "--beta", "1e-323", "--samples", "10",
                 "--seed", "1"],
                "squares per-sample occupations",
            ),
            (
                ["--scenario", "thermal", "--gamma", "1", "--omega-b", "100", "--half-bandwidth", "20",
                 "--n-modes", "5", "--beta", "1", "--samples", HUGE, "--seed", "1"],
                f"that {HUGE} samples allow",
            ),
            (
                ["--scenario", "fock-decay", "--gamma", "1", "--omega-b", "1", "--fock-n", "2",
                 "--n-steps", HUGE],
                "limit (lower n_modes, n_steps, samples or fock_n)",
            ),
            (
                ["--scenario", "excited-bath", "--gamma", "1", "--omega-b", "100", "--half-bandwidth",
                 "20", "--n-modes", HUGE],
                "limit (lower n_modes, n_steps, samples or fock_n)",
            ),
            (
                ["--scenario", "oracle-compare", "--gamma", "1", "--omega-b", "100", "--half-bandwidth",
                 "20", "--n-modes", "2", "--fock-n", HUGE],
                "limit (lower n_modes, n_steps, samples or fock_n)",
            ),
        ],
        ids=[
            "subnormal-squared-couplings",
            "oracle-infinite-occupations",
            "oracle-huge-occupations",
            "thermal-huge-occupations",
            "thermal-occupations-past-float64",
            "samples-past-float64",
            "n_steps-past-float64",
            "n_modes-past-float64",
            "fock_n-past-float64",
        ],
    )
    def test_cli_stops_at_the_config(self, capsys, flags, match):
        """Runs that failed deep in the code, or exited 0 with nan or finite but wrong rows.

        At beta = 1e-300 the oracle wrote a mean number of 3.47e265 at t = 0,
        and at beta = 1e-152 the thermal run phi_discrete of 2.05e118, where
        both read 1; at beta = 1e-323 beta omega rounds to zero and the
        thermal run warned of a division by zero before it stopped. Integers
        past float64 (``HUGE``) exited 1 with an OverflowError.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--t-max", "1", "--n-steps", "3", *flags])
        assert code == 1
        record = _error_record(capsys)
        assert record["error"] == "ConfigError"
        assert match in record["message"]

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


# Runs at the edges of float64: phases omega t_max past it ("phase"), just inside
# it ("phase-edge"), decay exponents gamma t_max past it ("decay"), and long grids.
EXTREME_FLAGS = {
    "phase": ["--omega-b", "1e300", "--half-bandwidth", "1e299", "--gamma", "1", "--t-max", "1e10"],
    "phase-edge": ["--omega-b", "1e150", "--half-bandwidth", "1e149", "--gamma", "1",
                   "--t-max", "1e158"],
    "decay": ["--omega-b", "1", "--half-bandwidth", "0.5", "--gamma", "1e300", "--t-max", "1e10"],
    "long": ["--omega-b", "10", "--half-bandwidth", "4", "--gamma", "1", "--t-max", "1e300"],
}
SCENARIO_FLAGS = {
    "fock-decay": ["--fock-n", "3"],
    "coherent-decay": [],
    "excited-bath": ["--n-modes", "3", "--lambda-re", "0.5"],
    "thermal": ["--n-modes", "3", "--beta", "1", "--samples", "10", "--seed", "1"],
    "wwa-validate": ["--n-modes", "3"],
    "oracle-compare": ["--n-modes", "3", "--fock-n", "2", "--beta", "1"],
}


class TestFiniteRows:
    """A run either stops at the config or writes finite cells only.

    With at least two Monte Carlo samples: at one sample the thermal stderr is
    infinite by design.
    """

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("extreme", EXTREME_FLAGS)
    def test_no_run_exits_0_with_a_non_finite_cell(self, capsys, tmp_path, scenario, extreme):
        path = tmp_path / "run.csv"
        code = main(["--scenario", scenario, *EXTREME_FLAGS[extreme], *SCENARIO_FLAGS[scenario],
                     "--n-steps", "3", "--output", str(path)])
        if code == 0:
            assert np.isfinite(report_from_csv(path.read_text()).table).all()
        else:
            assert _error_record(capsys)["error"] == "ConfigError"
        if extreme == "phase":
            assert code == (0 if scenario == "fock-decay" else 1)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_decay_past_float64_warns_nothing(self, tmp_path, scenario):
        """gamma t_max = 1e310 is the -inf exponent of every decay law: no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--scenario", scenario, *EXTREME_FLAGS["decay"], *SCENARIO_FLAGS[scenario],
                         "--n-steps", "3", "--output", str(tmp_path / "run.csv")])
        assert code == 0

    def test_fock_law_past_float64_warns_nothing(self):
        """gamma t past float64 is the -inf exponent of exp(-gamma t), not an overflow."""
        config = build_config(
            {"scenario": "fock-decay", "gamma": 1e308, "omega_b": 1.0, "fock_n": 2,
             "t_max": 1e10, "n_steps": 3}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_scenario(config).table
        assert table[1:].tolist() == [[5e9, 1.0, 0.0, 0.0], [1e10, 1.0, 0.0, 0.0]]


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


class TestPhaseRounding:
    """meta["diagnostics"]["max_phase_rounding"]: eps times the fastest frequency times t_max."""

    def test_huge_phases_report_their_rounding(self, tmp_path):
        """Phases near 2e14 rad run to completion, and the report names their rounding."""
        path = tmp_path / "run.json"
        code = main(["--scenario", "oracle-compare", "--gamma", "1e-6", "--omega-b", "1e6",
                     "--half-bandwidth", "20", "--n-modes", "3", "--fock-n", "2",
                     "--n-steps", "5", "--t-max", "1e8", "--format", "json",
                     "--output", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["meta"]["diagnostics"]["max_phase_rounding"] >= 1e-3

    @pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
    def test_benchmark_configs_round_their_phases_to_rounding_size(self, name):
        """Below 2e-12 (thermal-800x1e4 reaches 1.05e-12, oracle-fock10 1.29e-12); none in fock-decay."""
        config = parse_config(BENCHMARK_CONFIGS[name])
        diagnostics = run_scenario(config).meta.get("diagnostics", {})
        if config.scenario == "fock-decay":
            assert config.max_phase_rounding is None and "max_phase_rounding" not in diagnostics
        else:
            assert diagnostics["max_phase_rounding"] == config.max_phase_rounding < 2e-12

    def test_wwa_rounding_is_eps_times_the_gershgorin_bound_times_t_max(self):
        config = parse_config(BENCHMARK_CONFIGS["wwa-2000x201"])
        assert config.max_phase_rounding == pytest.approx(2.363e-13, rel=1e-3)


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
            (MINIMAL_FOCK, {"n_modes": 10**9, "half_bandwidth": 0.5}),
            (MINIMAL_FOCK.replace("fock-decay", "coherent-decay"),
             {"n_modes": 10**9, "half_bandwidth": 0.5}),
        ],
        ids=[
            "n_modes", "n_steps-x-fock_n", "n_steps-x-n_modes", "oracle-sector",
            "oracle-sector-x-n_steps", "oracle-density", "fock-decay-band", "coherent-decay-band",
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

    @pytest.mark.parametrize("size", ["10000000", HUGE], ids=["1e7", "past-float64"])
    def test_oversize_oracle_bath_stops_at_its_mode_limit(self, capsys, size):
        """Sized before its mode limit was checked, the oracle's sector C(fock_n + N, N)
        hung the config with both keys at 10^7 and overflowed with both at 10^400.
        """
        code = main(
            [
                "--scenario", "oracle-compare", "--gamma", "1", "--omega-b", "100",
                "--half-bandwidth", "20", "--n-modes", size, "--fock-n", size,
                "--t-max", "1", "--n-steps", "3",
            ]
        )
        assert code == 1
        assert _error_record(capsys) == {
            "error": "ConfigError",
            "message": f"n_modes: dense oracle supports at most 4 bath modes (got {size})",
        }

    def test_every_size_combination_ends_at_the_config(self):
        """Every scenario, with each non-empty subset of the size keys at 10^9 or at
        10^400, builds or raises ConfigError (180 configs, in a child process, so
        that a hang fails the test instead of stalling the suite).

        Only ``build_config`` is run. A config that passes may still run for an
        unbounded time: no rule bounds the run time, and a thermal run with
        ``samples`` = 10^300 passes the config and does not finish.
        """
        src = str(pathlib.Path(boson_decay.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", SIZE_SWEEP], capture_output=True, text=True,
                timeout=60, env={**os.environ, "PYTHONPATH": path},
            )
        except subprocess.TimeoutExpired as exc:
            started = os.fsdecode(exc.stdout or b"").splitlines()
            pytest.fail(f"config still running after 60 s, at case {started[-1:]}")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 180
        assert [line for line in lines if not line.endswith(("built", "ConfigError"))] == []

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


# Prints one line per config as it starts it (scenario, size keys, exponent) and
# ends the line with how build_config ended: "built", or the exception's name.
SIZE_SWEEP = """
import itertools
from boson_decay import SCENARIOS, build_config

base = dict(gamma=1, omega_b=100, half_bandwidth=20, t_max=1, n_steps=3, n_modes=2,
            fock_n=1, beta=1, samples=10, seed=1)
keys = ("n_modes", "fock_n", "n_steps", "samples")
for scenario in SCENARIOS:
    for count in range(1, len(keys) + 1):
        for subset in itertools.combinations(keys, count):
            for exponent in (9, 400):
                print(scenario, ",".join(subset), exponent, end=" ", flush=True)
                try:
                    build_config({**base, "scenario": scenario, **dict.fromkeys(subset, 10**exponent)})
                    print("built", flush=True)
                except Exception as exc:
                    print(type(exc).__name__, flush=True)
"""


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

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--scenario", "fock-decay", "--gamma", "1e-300", "--omega-b", "1", "--half-bandwidth",
              "1e-10", "--n-modes", "38", "--fock-n", "1"], "38 midpoint modes cannot resolve the band"),
            (["--scenario", "coherent-decay", "--gamma", "1", "--omega-b", "1", "--half-bandwidth", "-3",
              "--n-modes", "5"], "half_bandwidth must be positive"),
            (["--scenario", "coherent-decay", "--gamma", "1", "--omega-b", "1", "--half-bandwidth", "3",
              "--n-modes", "0"], "n_modes must be at least 1"),
        ],
        ids=["subnormal-squared-couplings", "negative-half-bandwidth", "no-modes"],
    )
    def test_dump_bath_built_through_the_config_check(self, capsys, monkeypatch, tmp_path, flags, match):
        """A bath the run does not use: it failed deep in discretize_bath, after the run."""
        def run_scenario(config):
            raise AssertionError("the scenario ran before the dump bath was checked")

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        bath_path = tmp_path / "bath.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(flags + ["--t-max", "1", "--n-steps", "3", "--dump-bath", str(bath_path)])
        assert code == 1
        record = _error_record(capsys)
        assert record["error"] == "ConfigError"
        assert match in record["message"]
        assert not bath_path.exists()

    def test_separate_negative_exponent_value_runs(self, capsys):
        """``--alpha-im -1e+16`` as two tokens: argparse alone exits 2 with a usage error."""
        flags = ["--scenario", "fock-decay", "--gamma", "1", "--omega-b", "1", "--t-max", "1",
                 "--n-steps", "2", "--fock-n", "0", "--alpha-im", "-1e+16"]
        assert main(flags) == 0
        assert capsys.readouterr().out == "t,P_0\n0.0,1.0\n1.0,1.0\n"

    def test_separate_negative_infinity_stops_at_the_config(self, capsys):
        flags = ["--scenario", "thermal", "--gamma", "1", "--omega-b", "100", "--half-bandwidth", "20",
                 "--n-modes", "5", "--samples", "10", "--seed", "1", "--t-max", "1", "--n-steps", "3",
                 "--beta", "-inf"]
        assert main(flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            '{"error": "ConfigError", "message": "key \'beta\' must be finite (got -inf)"}'
        ]

    def test_separate_dash_output_streams_to_stdout(self, capsys, tmp_path):
        flags = ["--scenario", "excited-bath", "--gamma", "1", "--omega-b", "100", "--half-bandwidth",
                 "20", "--n-modes", "5", "--t-max", "1", "--n-steps", "3", "--lambda-re", "-1e-3"]
        path = tmp_path / "report.csv"
        assert main(flags + ["--output", str(path)]) == 0
        capsys.readouterr()
        assert main(flags + ["--output", "-"]) == 0
        assert capsys.readouterr().out == path.read_text()


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
