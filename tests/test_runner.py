"""Scenario execution, report schemas, serialization, and the CLI surface."""

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boson_decay import RunReport, build_config, parse_config, run_scenario
from boson_decay import config as config_module
from boson_decay.bath import ThermalSpec
from boson_decay.cli import main
from boson_decay.decay import FockSpaceOracle
from boson_decay.runner import (
    _BLOCK_CELLS,
    emit_report,
    report_from_csv,
    report_from_json,
    write_report,
)

FOCK_TEXT = """
scenario = fock-decay
gamma = 1.0
omega_b = 100
fock_n = 2
t_max = 5
n_steps = 11
"""

COHERENT_TEXT = """
scenario = coherent-decay
gamma = 0.5
omega_b = 20
alpha_re = 2.0
t_max = 4
n_steps = 9
"""

EXCITED_TEXT = """
scenario = excited-bath
gamma = 1.0
omega_b = 10
n_modes = 40
half_bandwidth = 4
excited_mode = 20
lambda_re = 0.5
alpha_re = 1.0
t_max = 2
n_steps = 6
"""

THERMAL_TEXT = """
scenario = thermal
gamma = 1.0
omega_b = 200
n_modes = 120
half_bandwidth = 20
beta = 0.003
alpha_re = 1.0
t_max = 3
n_steps = 5
samples = 400
seed = 11
"""

WWA_TEXT = """
scenario = wwa-validate
gamma = 1.0
omega_b = 100
n_modes = 400
half_bandwidth = 20
t_max = 5
n_steps = 21
"""

ORACLE_TEXT = """
scenario = oracle-compare
gamma = 1.0
omega_b = 10
fock_n = 2
n_modes = 3
half_bandwidth = 2
beta = 0.07
t_max = 0.5
n_steps = 6
"""


class TestFockScenario:
    def test_top_population_is_exponential(self):
        report = run_scenario(parse_config(FOCK_TEXT))
        assert report.columns == ["t", "P_0", "P_1", "P_2"]
        for row in report.table:
            assert row[3] == pytest.approx(math.exp(-2.0 * row[0]), rel=1e-12)

    def test_grid_shape(self):
        report = run_scenario(parse_config(FOCK_TEXT))
        ts = report.table[:, 0].tolist()
        assert len(ts) == 11
        assert ts == sorted(ts)
        assert ts[0] == 0.0 and ts[-1] == 5.0

    def test_rows_are_normalized(self):
        report = run_scenario(parse_config(FOCK_TEXT))
        for row in report.table:
            assert sum(row[1:]) == pytest.approx(1.0, abs=1e-12)


class TestCoherentScenario:
    def test_mean_number_decays_at_gamma(self):
        report = run_scenario(parse_config(COHERENT_TEXT))
        assert report.columns == ["t", "mean_number", "re_label", "im_label", "purity"]
        for row in report.table:
            assert row[1] == pytest.approx(4.0 * math.exp(-0.5 * row[0]), rel=1e-12)
            assert row[4] == 1.0


class TestExcitedBathScenario:
    def test_initial_label_is_alpha(self):
        report = run_scenario(parse_config(EXCITED_TEXT))
        first = report.table[0]
        assert first[2] == pytest.approx(1.0, abs=1e-12)
        assert first[3] == pytest.approx(0.0, abs=1e-12)

    def test_bath_excitation_feeds_the_system(self):
        """With alpha = 0 the excited mode alone must populate the system."""
        report = run_scenario(parse_config(EXCITED_TEXT, overrides={"alpha_re": 0.0}))
        means = report.table[:, 1]
        assert means[0] == pytest.approx(0.0, abs=1e-15)
        assert max(means[1:]) > 1e-4


class TestThermalScenario:
    def test_schema_and_reproducibility(self):
        config = parse_config(THERMAL_TEXT)
        report = run_scenario(config)
        assert report.columns == [
            "t",
            "phi_discrete",
            "phi_closed",
            "paper_mean_number",
            "heff_mean_number",
            "oracle_occupation",
            "mc_occupation",
            "mc_stderr",
        ]
        again = run_scenario(config)
        assert np.array_equal(report.table, again.table)

    def test_monte_carlo_tracks_oracle(self):
        report = run_scenario(parse_config(THERMAL_TEXT))
        for row in report.table[1:]:
            oracle, mc, stderr = row[5], row[6], row[7]
            assert abs(mc - oracle) <= 4.0 * stderr


class TestWwaScenario:
    def test_summary_reports_pass(self):
        report = run_scenario(parse_config(WWA_TEXT))
        assert report.columns == [
            "t",
            "re_u",
            "im_u",
            "abs_u_sq",
            "sum_abs_v_sq",
            "unitarity_defect",
        ]
        summary = report.meta["summary"]
        assert summary["passed"] is True
        assert summary["max_abs_u_sq_deviation"] <= 2e-2
        for row in report.table:
            assert row[5] <= 1e-10


class TestOracleCompareScenario:
    def test_population_deviation_is_tiny(self):
        report = run_scenario(parse_config(ORACLE_TEXT))
        dev_col = report.columns.index("max_pop_deviation")
        assert max(report.table[:, dev_col]) <= 1e-8

    def test_divergence_columns(self):
        """The short-time laws differ linearly in time; the report records it."""
        report = run_scenario(parse_config(ORACLE_TEXT))
        cols = report.columns
        i_heff = cols.index("heff_fock_mean")
        i_exact = cols.index("exact_fock_mean")
        i_div = cols.index("divergence")
        assert report.table[0, i_div] == pytest.approx(0.0, abs=1e-12)
        for row in report.table:
            assert row[i_div] == pytest.approx(row[i_heff] - row[i_exact], abs=1e-12)
        magnitudes = np.abs(report.table[:, i_div]).tolist()
        assert magnitudes == sorted(magnitudes)

    def test_config_run_twice_gives_the_same_bytes(self):
        """The second run reuses the sector that the config's oracle diagonalized in the first."""
        config = parse_config(ORACLE_TEXT)
        first = emit_report(run_scenario(config), "csv")
        assert config.oracle._sectors
        assert emit_report(run_scenario(config), "csv") == first


PROPAGATOR_KEYS = ["max_unitarity_defect", "sum_rule_residual"]

# The bath scenarios of the benchmark workloads. The sum rule depends on the
# system and bath only, so the thermal one draws 100 samples, not 10000.
BENCHMARK_BATH_CONFIGS = {
    "wwa-2000x201": {
        "scenario": "wwa-validate", "gamma": 1.0, "omega_b": 100.0, "band_center": 100.0,
        "half_bandwidth": 20.0, "n_modes": 2000, "n_steps": 201, "t_max": 5.0,
    },
    "thermal-800x1e4": {
        "scenario": "thermal", "gamma": 1.0, "omega_b": 800.0, "band_center": 800.0,
        "half_bandwidth": 80.0, "n_modes": 800, "samples": 100, "seed": 1, "n_steps": 21,
        "t_max": 5.0, "beta": math.log(2.0) / 800.0,
    },
    "oracle-fock10": {
        "scenario": "oracle-compare", "gamma": 1.0, "omega_b": 100.0, "band_center": 100.0,
        "half_bandwidth": 20.0, "n_modes": 4, "fock_n": 10, "beta": 0.2, "n_steps": 201,
        "t_max": 5.0,
    },
}


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text, keys, statistics",
        [
            (WWA_TEXT, PROPAGATOR_KEYS, []),
            (THERMAL_TEXT, PROPAGATOR_KEYS, ["max_mc_z_score"]),
            (ORACLE_TEXT, PROPAGATOR_KEYS, []),
            (EXCITED_TEXT, ["max_norm_defect"], []),
        ],
        ids=["wwa-validate", "thermal", "oracle-compare", "excited-bath"],
    )
    def test_propagator_reports_carry_numerical_health(self, text, keys, statistics):
        """Defects and residuals are at most 1e-10; statistics and the phase rounding follow them."""
        meta = run_scenario(parse_config(text)).meta
        assert list(meta["diagnostics"]) == keys + statistics + ["max_phase_rounding"]
        for key in keys:
            assert 0.0 <= meta["diagnostics"][key] <= 1e-10

    @pytest.mark.parametrize("text", [FOCK_TEXT, COHERENT_TEXT], ids=["fock-decay", "coherent-decay"])
    def test_phase_rounding_is_reported_where_phases_rotate(self, text):
        """coherent-decay rotates alpha u, fock-decay no phase at all."""
        config = parse_config(text)
        diagnostics = run_scenario(config).meta.get("diagnostics", {})
        if config.scenario == "fock-decay":
            assert diagnostics == {}
        else:
            assert diagnostics == {"max_phase_rounding": config.max_phase_rounding}
            assert 0.0 < config.max_phase_rounding < 1e-12

    def test_thermal_z_score_reads_the_resolved_rows(self):
        """max_mc_z_score is the worst |mc - oracle| / stderr over rows with stderr > 1e-12 mc."""
        report = run_scenario(parse_config(THERMAL_TEXT))
        oracle, mc, stderr = report.table[:, 5:8].T
        resolved = stderr > 1e-12 * mc
        assert not resolved[0] and resolved[1:].all()  # t = 0: every branch equals alpha
        z = report.meta["diagnostics"]["max_mc_z_score"]
        assert z == np.max(np.abs(mc - oracle)[1:] / stderr[1:])
        assert 0.0 < z <= 4.0

    @pytest.mark.parametrize(
        "beta, alpha_re, alpha_im, worst_z",
        [(1.0, 3000.0, 0.3, 0.0), (1.0, 1e4, 0.0, 0.0), (0.02, 1e5, 0.0, 4.0)],
    )
    def test_thermal_runs_at_large_alpha(self, beta, alpha_re, alpha_im, worst_z):
        """Large |alpha| gives finite rows, and rounding-sized stderrs carry no z-score.

        The occupation could round below the squared mean amplitude here, which
        stopped the run. In a cold bath every branch is alpha u, and the stderr
        of each row is only rounding, 1e-18 of its occupation.
        """
        config = build_config(
            {
                "scenario": "thermal", "gamma": 1.0, "omega_b": 800.0, "band_center": 800.0,
                "half_bandwidth": 80.0, "n_modes": 50, "samples": 10_000, "n_steps": 21,
                "t_max": 5.0, "beta": beta, "seed": 7, "alpha_re": alpha_re,
                "alpha_im": alpha_im,
            }
        )
        report = run_scenario(config)
        assert np.isfinite(report.table).all()
        oracle, mc = report.table[:, 5:7].T
        np.testing.assert_allclose(mc, oracle, rtol=1e-9)
        assert 0.0 <= report.meta["diagnostics"]["max_mc_z_score"] <= worst_z

    @pytest.mark.parametrize(
        "text, stages",
        [
            (FOCK_TEXT, []),
            (COHERENT_TEXT, []),
            (EXCITED_TEXT, ["spectrum", "evaluate"]),
            (THERMAL_TEXT, ["spectrum", "evaluate", "monte_carlo"]),
            (WWA_TEXT, ["spectrum", "evaluate"]),
            (ORACLE_TEXT, ["spectrum", "evaluate", "oracle"]),
        ],
        ids=["fock-decay", "coherent-decay", "excited-bath", "thermal", "wwa-validate",
             "oracle-compare"],
    )
    def test_meta_times_the_stages_each_scenario_runs(self, text, stages):
        """meta["timings"] names the stages run, in order; together they fit in the run."""
        meta = run_scenario(parse_config(text)).meta
        timings = meta["timings"]
        assert list(timings) == stages
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert sum(timings.values()) <= meta["elapsed_seconds"]

    @pytest.mark.parametrize("name", list(BENCHMARK_BATH_CONFIGS))
    def test_sum_rule_at_benchmark_configs(self, name):
        """|sum_k V_0k^2 - 1| of the benchmark baths is at most 1e-12."""
        meta = run_scenario(build_config(BENCHMARK_BATH_CONFIGS[name])).meta
        assert 0.0 <= meta["diagnostics"]["sum_rule_residual"] <= 1e-12


class TestSerialization:
    @pytest.fixture()
    def report(self):
        return run_scenario(parse_config(FOCK_TEXT))

    def test_csv_json_csv_round_trip_is_bitwise(self, report):
        csv_text = emit_report(report, "csv")
        as_json = emit_report(report_from_csv(csv_text), "json")
        back = emit_report(report_from_json(as_json), "csv")
        assert back == csv_text

    def test_csv_floats_round_trip(self, report):
        parsed = report_from_csv(emit_report(report, "csv"))
        assert np.array_equal(parsed.table, report.table)

    def test_json_carries_meta(self, report):
        payload = json.loads(emit_report(report, "json"))
        assert payload["meta"]["config"]["scenario"] == "fock-decay"
        assert payload["columns"][0] == "t"
        assert len(payload["rows"]) == 11

    def test_reports_compare_by_value(self, report):
        copy = RunReport(columns=list(report.columns), table=report.table.copy(),
                         meta=dict(report.meta))
        assert copy == report
        copy.table[-1, -1] += 1.0
        assert (copy == report) is False

    def test_emit_report_dispatch(self, report):
        assert emit_report(report, "csv").startswith("t,")
        assert emit_report(report, "json").startswith("{")
        with pytest.raises(ValueError):
            emit_report(report, "parquet")

    def test_metadata_echoes_config(self, report):
        meta = report.meta
        assert meta["config"]["gamma"] == 1.0
        assert meta["config"]["output"] == "-"
        assert "alpha_re" in meta["defaults_applied"]
        assert "numpy" in meta["versions"]

    def test_write_report_with_sidecar(self, tmp_path):
        config = parse_config(FOCK_TEXT, overrides={"output": str(tmp_path / "out.csv")})
        report = run_scenario(config)
        path = write_report(report, config)
        assert path == str(tmp_path / "out.csv")
        text = (tmp_path / "out.csv").read_text()
        assert text.startswith("t,P_0,P_1,P_2\n")
        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert sidecar["config"]["scenario"] == "fock-decay"

    def test_unwritable_path_raises(self, tmp_path):
        config = parse_config(
            FOCK_TEXT, overrides={"output": str(tmp_path / "missing" / "out.csv")}
        )
        report = run_scenario(config)
        with pytest.raises(OSError, match="cannot write"):
            write_report(report, config)


# Cells whose shortest repr switches notation or sign: the streamed writer must
# format them exactly as repr(float(value)) does.
SPECIAL_CELLS = [-0.0, 5e-324, 1e16, 1e-05, math.inf, -math.inf]
STDOUT_CONFIG = build_config(
    {"scenario": "fock-decay", "gamma": 1.0, "omega_b": 1.0, "fock_n": 1, "t_max": 1.0,
     "n_steps": 2}
)
STDOUT_CONFIG_JSON = dataclasses.replace(STDOUT_CONFIG, format="json")


@st.composite
def float_tables(draw):
    cols = draw(st.integers(1, 4))
    block = _BLOCK_CELLS // cols  # rows per block
    rows = draw(st.sampled_from([0, 1, block - 1, block, block + 1]))
    cells = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(width=64))
    table = draw(arrays(np.float64, (rows, cols), elements=cells))
    return RunReport(columns=[f"c{j}" for j in range(cols)], table=table)


def _reference_csv(report):
    """The per-cell CSV formatter the block-streamed writer must reproduce."""
    lines = [",".join(report.columns)]
    for row in report.table:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _reference_json(report):
    """The one-shot dump the block-streamed JSON writer must reproduce."""
    payload = {"meta": report.meta, "columns": report.columns, "rows": report.table.tolist()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _stdout_of(report, config):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert write_report(report, config) is None
    return buffer.getvalue()


class TestStreamedWriter:
    @settings(max_examples=60, deadline=None)
    @given(report=float_tables())
    def test_streamed_csv_equals_per_cell_repr(self, report):
        expected = _reference_csv(report)
        assert emit_report(report, "csv") == expected
        assert _stdout_of(report, STDOUT_CONFIG) == expected

    @settings(max_examples=60, deadline=None)
    @given(report=float_tables())
    def test_streamed_json_equals_one_shot_dump(self, report):
        report.meta = {"config": {"scenario": "fock-decay", "beta": None}, "seed": 3}
        expected = _reference_json(report)
        assert emit_report(report, "json") == expected
        assert _stdout_of(report, STDOUT_CONFIG_JSON) == expected

    def test_json_keeps_infinite_stderr_of_a_single_sample(self):
        """At samples = 1 the Monte Carlo stderr is inf, written as json writes it."""
        report = run_scenario(parse_config(THERMAL_TEXT, overrides={"samples": 1}))
        assert np.isinf(report.table[1:, -1]).all()
        text = emit_report(report, "json")
        assert text == _reference_json(report)
        assert "Infinity" in text

    @settings(max_examples=60, deadline=None)
    @given(report=float_tables())
    def test_csv_json_csv_round_trip_is_bytewise(self, report):
        csv_text = emit_report(report, "csv")
        back = emit_report(report_from_json(emit_report(report_from_csv(csv_text), "json")), "csv")
        assert back == csv_text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_bytes_equal_file_bytes(self, tmp_path, fmt):
        """One report written to stdout and to a file gives the same bytes.

        In process, because the metadata of two runs differs in its wall clock.
        """
        config = parse_config(FOCK_TEXT, overrides={"format": fmt, "fock_n": 40})
        report = run_scenario(config)
        path = tmp_path / f"fock.{fmt}"
        write_report(report, dataclasses.replace(config, output=str(path)))
        assert _stdout_of(report, config).encode("utf-8") == path.read_bytes()
        assert path.read_text() == emit_report(report, fmt)

    def test_write_peak_memory_is_a_few_tables(self, tmp_path):
        """Traced peak of a fock-decay run and its CSV write is at most 6x the table."""
        config = build_config(
            {"scenario": "fock-decay", "gamma": 1.0, "omega_b": 1.0, "fock_n": 100,
             "t_max": 5.0, "n_steps": 1001, "output": str(tmp_path / "fock.csv")}
        )
        table_bytes = 8 * 1001 * (100 + 2)
        tracemalloc.start()
        try:
            write_report(run_scenario(config), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * table_bytes

    def test_json_write_peak_memory_is_a_few_tables(self, tmp_path):
        """Traced peak of a fock-decay run and its JSON write is at most 3x the table.

        The run alone peaks near 2.2x; a JSON writer that held every row as
        Python floats reached 5.1x.
        """
        config = build_config(
            {"scenario": "fock-decay", "gamma": 1.0, "omega_b": 1.0, "fock_n": 100,
             "t_max": 5.0, "n_steps": 1001, "format": "json",
             "output": str(tmp_path / "fock.json")}
        )
        table_bytes = 8 * 1001 * (100 + 2)
        tracemalloc.start()
        try:
            write_report(run_scenario(config), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table_bytes


# Rows per block of a 7-column table, and tables around its block edges and of several blocks.
SPECIAL_BLOCK = _BLOCK_CELLS // 7
FORMATTER_ROWS = [0, 1, SPECIAL_BLOCK - 1, SPECIAL_BLOCK, SPECIAL_BLOCK + 1,
                  2 * SPECIAL_BLOCK + 1, 8 * SPECIAL_BLOCK + 5]


def _special_report(rows):
    """Random cells of many magnitudes; every fifth row, and the last, holds SPECIAL_CELLS."""
    table = np.random.default_rng(rows).standard_normal((rows, 7)) * 10.0 ** np.arange(-9, 12, 3)
    specials = [math.nan, *SPECIAL_CELLS]
    table[::5] = specials
    table[-1:] = specials[::-1]
    return RunReport(columns=[f"c{j}" for j in range(7)], table=table, meta={"seed": rows})


class TestBlockWriter:
    """Rows are formatted in this process, in blocks of at most _BLOCK_CELLS cells."""

    @pytest.mark.parametrize("rows", FORMATTER_ROWS)
    def test_bytes_equal_the_per_cell_reference(self, rows):
        report = _special_report(rows)
        assert emit_report(report, "csv") == _reference_csv(report)
        assert emit_report(report, "json") == _reference_json(report)

    def test_consumer_that_stops_gets_broken_pipe(self):
        """A stdout that breaks after the header gets BrokenPipeError, and no process is left."""

        class BreakingPipe(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise BrokenPipeError("reader closed")
                return super().write(text)

        report = _special_report(40 * SPECIAL_BLOCK)
        for config in (STDOUT_CONFIG, STDOUT_CONFIG_JSON):
            with contextlib.redirect_stdout(BreakingPipe()), pytest.raises(BrokenPipeError):
                write_report(report, config)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


BATH_TEXTS = {
    "excited-bath": EXCITED_TEXT,
    "thermal": THERMAL_TEXT,
    "wwa-validate": WWA_TEXT,
    "oracle-compare": ORACLE_TEXT,
}


class TestBuiltOnce:
    @pytest.mark.parametrize("dump", [False, True], ids=["run", "dump-bath"])
    @pytest.mark.parametrize("scenario", list(BATH_TEXTS))
    def test_cli_builds_each_object_once(self, monkeypatch, tmp_path, scenario, dump):
        """One bath, one temperature and (oracle-compare) one oracle per run, bath dumped or not."""
        calls = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(config_module, "discretize_bath", counted("bath", config_module.discretize_bath))
        monkeypatch.setattr(
            ThermalSpec, "for_system", classmethod(counted("thermal", ThermalSpec.for_system.__func__))
        )
        monkeypatch.setattr(FockSpaceOracle, "__init__", counted("oracle", FockSpaceOracle.__init__))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BATH_TEXTS[scenario])
        dump_flags = ["--dump-bath", str(tmp_path / "bath.csv")] if dump else []
        assert main(["--config", str(cfg), "--output", str(tmp_path / "run.csv"), *dump_flags]) == 0
        assert calls == collections.Counter(bath=1, thermal=1, oracle=int(scenario == "oracle-compare"))
        assert (tmp_path / "bath.csv").exists() == dump

    @pytest.mark.parametrize("scenario", list(BATH_TEXTS))
    def test_occupations_built_once_per_run(self, monkeypatch, scenario):
        """The config's check and every column of the run read one occupations array."""
        calls = []
        occupations = ThermalSpec.occupations

        def counted(spec, bath):
            calls.append(spec)
            return occupations(spec, bath)

        monkeypatch.setattr(ThermalSpec, "occupations", counted)
        config = parse_config(BATH_TEXTS[scenario])
        run_scenario(config)
        assert len(calls) == 1


class TestCli:
    def _run(self, *args, env_extra=None, timeout=None):
        env = dict(os.environ)
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "boson_decay.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )

    def test_large_fock_n_ends_with_unit_row_sums(self, tmp_path):
        """fock_n = 10^5 ends within 20 s: its binomial table is O(n), not big-integer math.comb."""
        out = tmp_path / "fock.csv"
        result = self._run(
            "--scenario", "fock-decay", "--gamma", "1", "--omega-b", "1", "--fock-n", "100000",
            "--t-max", "1", "--n-steps", "2", "--output", str(out), timeout=20,
        )
        assert result.returncode == 0, result.stderr
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (2, 100_002)
        assert np.max(np.abs(rows[:, 1:].sum(axis=1) - 1.0)) <= 1e-10

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOCK_TEXT)
        result = self._run("--config", str(cfg))
        assert result.returncode == 0
        assert result.stdout.startswith("t,P_0,P_1,P_2\n")

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOCK_TEXT)
        out = tmp_path / "fock.csv"
        result = self._run(
            "--config", str(cfg), "--fock-n", "1", "--n-steps", "4", "--output", str(out)
        )
        assert result.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,P_0,P_1"

    def test_flags_alone_suffice(self, tmp_path):
        out = tmp_path / "c.csv"
        result = self._run(
            "--scenario", "coherent-decay", "--gamma", "1", "--omega-b", "50",
            "--t-max", "2", "--n-steps", "5", "--output", str(out),
        )
        assert result.returncode == 0
        assert out.exists()

    def test_error_record_is_single_line_json(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FOCK_TEXT.replace("n_steps = 11", "n_steps = 1"))
        result = self._run("--config", str(cfg))
        assert result.returncode == 1
        lines = [line for line in result.stderr.splitlines() if line]
        record = json.loads(lines[-1])
        assert record["error"] == "ConfigError"
        assert "n_steps" in record["message"]

    def test_large_fock_n_is_finite_and_normalized(self, tmp_path):
        """The binomial law no longer overflows at fock_n = 2000."""
        out = tmp_path / "fock.csv"
        result = self._run(
            "--scenario", "fock-decay", "--gamma", "1", "--omega-b", "1", "--fock-n", "2000",
            "--t-max", "1", "--n-steps", "3", "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = report_from_csv(out.read_text())
        assert len(report.table) == 3
        for row in report.table.tolist():
            assert all(math.isfinite(x) for x in row)
            assert abs(math.fsum(row[1:]) - 1.0) <= 1e-12

    def test_reader_closing_stdout_early_exits_1_with_error_record(self):
        """A stdout reader that stops after 100 bytes gets a clean exit 1 and JSON record.

        The CSV (about 500 kB) is far larger than a pipe's buffer, so the
        writer meets the closed pipe while the run is still writing.
        """
        flags = ["--scenario", "fock-decay", "--gamma", "1", "--omega-b", "1", "--fock-n", "50",
                 "--t-max", "5", "--n-steps", "501", "--output", "-"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "boson_decay.cli", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert head.startswith(b"t,P_0,P_1,")
        lines = [line for line in stderr.splitlines() if line]
        assert json.loads(lines[-1])["error"] == "BrokenPipeError"
        assert "Exception ignored" not in stderr

    def test_dump_bath(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(WWA_TEXT.replace("n_modes = 400", "n_modes = 20"))
        bath_path = tmp_path / "bath.csv"
        out = tmp_path / "w.csv"
        result = self._run(
            "--config", str(cfg), "--dump-bath", str(bath_path), "--output", str(out)
        )
        assert result.returncode == 0
        lines = bath_path.read_text().splitlines()
        assert lines[0] == "j,omega_j,xi_j"
        assert len(lines) == 21

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOCK_TEXT)
        out = tmp_path / "fock.json"
        result = self._run("--config", str(cfg), "--format", "json", "--output", str(out))
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["config"]["format"] == "json"
