"""The vectorized float formatter against ``repr``, cell for cell."""

import math

import numpy as np
import pytest

from boson_decay.floatrepr import format_rows


def _edge_values():
    """Powers of two and ten with their neighbours, integers near 2^53, zeros, subnormal edges.

    Also the largest float, the switches between positional and scientific
    form, and the non-finite values.
    """
    values = [2.0**e for e in range(-1074, 1024)]
    values += [float(f"1e{e}") for e in range(-323, 309)]
    values = np.array(values)
    values = [*values, *np.nextafter(values, 0.0), *np.nextafter(values, math.inf)]
    values += [2.0**53 + i for i in range(-40, 41)] + [2.0**54 + 2 * i for i in range(-20, 21)]
    tiny = np.finfo(np.float64).tiny
    values += [0.0, 5e-324, 1e-323, tiny, np.nextafter(tiny, 0.0), np.finfo(np.float64).max]
    values += [1e16, 1e15, 9999999999999998.0, 1e-4, 1e-5, 0.1, 0.3, 1 / 3, 123456789.0]
    values = np.array(values)
    return np.concatenate([values, -values, [math.nan, -math.nan, math.inf, -math.inf]])


def _random_values(count):
    """Seeded random bit patterns: every exponent, subnormals and non-finite values included."""
    bits = np.random.default_rng(20240515).integers(0, 2**64, size=count, dtype=np.uint64)
    return bits.view(np.float64)


@pytest.mark.parametrize(
    "values", [_edge_values(), _random_values(200_000)], ids=["edges", "random"]
)
def test_cells_are_written_as_repr_writes_them(values):
    cells = values[: len(values) // 4 * 4].reshape(-1, 4)
    text = format_rows(cells, b",", b"\n", (b"nan", b"inf")).decode("ascii")
    expected = "".join(",".join(map(repr, row)) + "\n" for row in cells.tolist())
    if text != expected:
        wrong = [(a, b) for a, b in zip(text.splitlines(), expected.splitlines()) if a != b]
        pytest.fail(f"{len(wrong)} rows differ from repr, first {wrong[:3]}")


def test_separators_and_names_are_the_callers():
    cells = np.array([[1.0, -math.inf, math.nan], [-0.0, math.inf, 2.5e-300]])
    text = format_rows(cells, b", ", b";\n", (b"NaN", b"Infinity")).decode("ascii")
    assert text == "1.0, -Infinity, NaN;\n-0.0, Infinity, 2.5e-300;\n"
    assert format_rows(cells[:, :1], b",", b"", (b"nan", b"inf")) == b"1.0-0.0"
    assert format_rows(cells[:0], b",", b"\n", (b"nan", b"inf")) == b""
