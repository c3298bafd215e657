import numpy as np
import pytest

import squeezetransfer.csvtext as csvtext
from squeezetransfer.csvtext import WIDTH, g17_text

from _oracles import reference_tables


def texts(values):
    rows = g17_text(values).reshape(-1, WIDTH)
    lines = np.zeros((len(rows), WIDTH + 1), np.uint8)
    lines[:, :WIDTH], lines[:, WIDTH] = rows, ord("\n")
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def reference(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


@pytest.fixture
def fallbacks(monkeypatch):
    """The values each call handed to the per-value '%.17g' fallback."""
    seen = []
    real = csvtext._fallback

    def recording(v, out, rows):
        seen.extend(v[rows].tolist())
        real(v, out, rows)

    monkeypatch.setattr(csvtext, "_fallback", recording)
    return seen


@pytest.mark.parametrize(
    "value, text",
    [
        (1e14 + 0.125, "100000000000000.12"),  # exact ties round half to even
        (1e14 + 0.375, "100000000000000.38"),
        (0.4676581991912427, "0.46765819919124268"),  # 8.2e-7 from a tie, proven
        (5e-324, "4.9406564584124654e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (0.0, "0"),
        (-0.0, "-0"),
        (np.nan, "nan"),
        (-np.nan, "nan"),
        (np.inf, "inf"),
        (-np.inf, "-inf"),
        (1e-5, "1.0000000000000001e-05"),
        (1e-4, "0.0001"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (123456.0, "123456"),
        (-1 / 3, "-0.33333333333333331"),
        (1e-100, "1e-100"),
        (1e100, "1e+100"),
    ],
)
def test_named_values(value, text):
    assert "%.17g" % value == text
    assert texts(np.array([value])) == [text]


def test_ties_and_range_ends_fall_back_and_the_rest_does_not(fallbacks):
    ordinary = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1 / 3, 1e-5, 1e17, 1e249,
                         0.4676581991912427])
    assert texts(ordinary) == reference(ordinary)
    assert fallbacks == []
    unproven = np.array([1e14 + 0.125, 1e14 + 0.375, 5e-324, 1e-251, 1.7976931348623157e308])
    assert texts(unproven) == reference(unproven)
    assert fallbacks == unproven.tolist()


def test_random_bit_patterns():
    rng = np.random.default_rng(20240917)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert texts(values) == reference(values)


def test_neighbours_of_powers_of_ten():
    powers = 10.0 ** np.arange(-30, 31)
    values = [powers]
    for direction in (0.0, np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            values.append(step)
    values = np.concatenate(values)
    assert texts(values) == reference(values)
    assert texts(-values) == reference(-values)


def test_seventeen_digit_decimals_and_carries():
    # decimal 17-digit values, some of which round up to the next power of ten
    rng = np.random.default_rng(7)
    values = rng.integers(10**16, 10**17, 20_000) * 10.0 ** rng.integers(-40, 40, 20_000)
    carries = np.array([9.9999999999999999e22, 0.99999999999999994, 9.9999999999999995e-7])
    values = np.concatenate([values, carries])
    assert texts(values) == reference(values)


def test_shapes_and_empty():
    values = np.arange(12.0).reshape(3, 4) / 7
    assert g17_text(values).shape == (3, 4, WIDTH)
    assert texts(values) == reference(values)
    assert g17_text(np.empty(0)).shape == (0, WIDTH)


def test_tables_match_a_reference_build():
    tables = csvtext._tables()
    csvtext._powers(csvtext._E_MIN, csvtext._E_MAX)
    for name, expected in reference_tables().items():
        got = getattr(tables, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected), name


def test_powers_are_filled_for_the_exponents_values_need(monkeypatch):
    monkeypatch.setattr(csvtext, "_tables", csvtext._tables.__wrapped__)
    fresh = csvtext._tables()
    monkeypatch.setattr(csvtext, "_tables", lambda: fresh)
    values = np.array([0.5, 3.0, 12.5])
    assert texts(values) == reference(values)
    assert fresh.filled == [-3, 3]  # e in -1..1, two either side
    assert texts(np.array([1e30])) == reference([1e30])
    assert fresh.filled == [-3, 32]  # one range, the gap filled too
    expected = reference_tables()["powers"]
    filled = slice(-3 - csvtext._E_MIN, 33 - csvtext._E_MIN)
    assert np.array_equal(fresh.powers[:, filled], expected[:, filled])
