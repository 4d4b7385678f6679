"""Config fuzz: every drawn command either stops at the config or writes a finite report.

A derandomized hypothesis test drives ``cli.main`` over all six scenarios with
small sizes (N <= 60 bath modes, at most 4 for the oracle; T <= 11 grid points;
at most 200 Monte Carlo samples) and float keys whose magnitudes span
[1e-300, 1e300]. Each run must either exit 1 with one ``ConfigError`` record
on stderr and nothing on stdout, or exit 0 with a report whose cells are all
finite, whose diagnostics are finite, and with no warning raised. The one
non-finite cell by design is the Monte Carlo stderr of a single sample, which
is infinite. Each float is passed either as ``--key=value`` or as the two
tokens ``--key value``, drawn per key: ``cli.main`` takes both alike, even a
value such as ``-1e+16`` or ``-inf`` that argparse alone reads as a flag.

A huge ``samples`` is not drawn: such a thermal run passes the config and then
runs for as long as its sample count takes, since no rule bounds the run time;
that is a separate open fault, not one of the config's float boundaries.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boson_decay import SCENARIOS
from boson_decay.cli import main

BATH_SCENARIOS = ("excited-bath", "thermal", "wwa-validate", "oracle-compare")


def _magnitude(signed: bool = False):
    """10^e for e uniform over [-300, 300], negated half the time where ``signed``."""
    values = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
    if signed:
        values = st.tuples(values, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])
    return values


@st.composite
def commands(draw):
    """A ``boson-decay`` command line for a drawn scenario.

    As a flag -> value dict, and the set of float keys to pass as two tokens.
    """
    scenario = draw(st.sampled_from(SCENARIOS))
    flags = {
        "scenario": scenario,
        "gamma": draw(_magnitude()),
        "omega_b": draw(_magnitude()),
        "t_max": draw(_magnitude()),
        "n_steps": draw(st.integers(2, 11)),
    }
    for key in ("alpha_re", "alpha_im", "lambda_re", "lambda_im"):
        if draw(st.booleans()):
            flags[key] = draw(_magnitude(signed=True))
    if scenario in BATH_SCENARIOS or draw(st.booleans()):
        flags["n_modes"] = draw(st.integers(1, 4 if scenario == "oracle-compare" else 60))
        flags["half_bandwidth"] = draw(_magnitude())
        if draw(st.booleans()):
            flags["band_center"] = draw(_magnitude(signed=True))
    if scenario == "excited-bath":
        flags["excited_mode"] = draw(st.integers(0, flags["n_modes"] - 1))
    if scenario == "fock-decay":
        flags["fock_n"] = draw(st.integers(0, 20))
    if scenario == "oracle-compare":
        flags["fock_n"] = draw(st.integers(0, 6))
    if scenario == "thermal" or (scenario in BATH_SCENARIOS and draw(st.booleans())):
        flags["beta"] = draw(st.one_of(_magnitude(), st.just(math.inf)))
    if scenario == "thermal":
        flags["samples"] = draw(st.integers(1, 200))
        flags["seed"] = draw(st.integers(0, 2**32))
    separate = {key for key, value in flags.items() if isinstance(value, float) and draw(st.booleans())}
    return flags, separate


def _run(flags, separate):
    """Exit code, stdout, stderr lines and warnings of ``boson-decay`` with ``flags``."""
    argv = ["--format=json", "--output=-"]
    for key, value in flags.items():
        flag, text = f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)
        argv += [flag, text] if key in separate else [f"{flag}={text}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue().splitlines(), [str(w.message) for w in caught]


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(commands())
def test_every_command_stops_at_the_config_or_writes_finite_cells(command):
    flags, separate = command
    code, out, err, caught = _run(flags, separate)
    if code == 1:
        assert len(err) == 1 and out == ""
        assert json.loads(err[0])["error"] == "ConfigError", err[0]
        return
    assert code == 0
    assert caught == []
    payload = json.loads(out)
    table = np.array(payload["rows"], dtype=float)
    assert table.shape == (flags["n_steps"], len(payload["columns"]))
    if flags.get("samples") == 1:  # one sample has no spread to estimate its stderr from
        stderr_column = payload["columns"].index("mc_stderr")
        assert np.all(table[:, stderr_column] == math.inf)
        table = np.delete(table, stderr_column, axis=1)
    assert np.isfinite(table).all()
    meta = payload["meta"]
    numbers = [*meta.get("diagnostics", {}).values(), *meta.get("summary", {}).values()]
    assert all(math.isfinite(value) for value in numbers), meta
