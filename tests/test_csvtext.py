import json
import math

import numpy as np
import pytest

import squeezetransfer.csvtext as csvtext
from squeezetransfer.csvtext import WIDTH, g17_text, json_text

from _oracles import reference_tables


# Each encoder, and the Python formatter it must match value for value.  The
# JSON writer's text is float.__repr__ with inf as Infinity, as json.dumps
# writes it, except that nan is null.
FORMATS = {"g17": (g17_text, "%.17g".__mod__), "json": (json_text, float.__repr__)}
JSON_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def texts(values, fmt="g17"):
    rows = FORMATS[fmt][0](values).reshape(-1, WIDTH)
    lines = np.zeros((len(rows), WIDTH + 1), np.uint8)
    lines[:, :WIDTH], lines[:, WIDTH] = rows, ord("\n")
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def reference(values, fmt="g17"):
    text = list(map(FORMATS[fmt][1], np.asarray(values, dtype=np.float64).ravel().tolist()))
    return [JSON_NON_FINITE.get(s, s) for s in text] if fmt == "json" else text


@pytest.fixture
def fallbacks(monkeypatch):
    """The values each call handed to the per-value '%.17g' fallback."""
    seen = []
    real = csvtext._fallback

    def recording(v, out, rows, form):
        seen.extend(v[rows].tolist())
        real(v, out, rows, form)

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


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.1"),
        (1 / 3, "0.3333333333333333"),
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (np.nan, "null"),
        (-np.nan, "null"),
        (np.inf, "Infinity"),
        (-np.inf, "-Infinity"),
        (1e-5, "1e-05"),
        (1e-4, "0.0001"),
        (123.0, "123.0"),
        (1e15, "1000000000000000.0"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e16, "1e+16"),
        (1.5e16, "1.5e+16"),
        (1e22, "1e+22"),
        (1e23, "1e+23"),  # 10**23 is a tie between two doubles, 1e23 the even one
        (1e14 + 0.125, "100000000000000.12"),  # two shortest texts tie: half-even
        (5e-324, "5e-324"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (-2.5e-300, "-2.5e-300"),
    ],
)
def test_named_json_values(value, text):
    assert json.dumps(None if math.isnan(value) else value) == text
    assert texts(np.array([value]), "json") == [text]


def test_ties_and_range_ends_fall_back_and_the_rest_does_not(fallbacks):
    ordinary = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1 / 3, 1e-5, 1e17, 1e249,
                         0.4676581991912427])
    assert texts(ordinary) == reference(ordinary)
    assert fallbacks == []
    unproven = np.array([1e14 + 0.125, 1e14 + 0.375, 5e-324, 1e-251, 1.7976931348623157e308])
    assert texts(unproven) == reference(unproven)
    assert fallbacks == unproven.tolist()


def test_json_falls_back_at_interval_ends_and_ties_only(fallbacks):
    ordinary = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1 / 3, 1e-5, 1e17, 1e249,
                         0.4676581991912427, 1e15, 9.999999999999998e22])
    assert texts(ordinary, "json") == reference(ordinary, "json")
    assert fallbacks == []
    # interval ends on integers (1e16, 2**53, and 1e23 on 10**17), a tie
    # between two shortest texts, and the unproven range
    unproven = np.array([1e16, 2.0**53, 1e23, 1e14 + 0.125, 5e-324, 1e-251,
                         1.7976931348623157e308])
    assert texts(unproven, "json") == reference(unproven, "json")
    assert fallbacks == unproven.tolist()


@pytest.mark.parametrize("fmt, n", [("g17", 200_000), ("json", 1_000_000)])
def test_random_bit_patterns(fmt, n):
    rng = np.random.default_rng(20240917)
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    for chunk in np.array_split(values, n // 200_000):  # about 30 MB of rows at a time
        assert texts(chunk, fmt) == reference(chunk, fmt)


def test_json_fallback_share(fallbacks):
    """Of random bit patterns in the proven range, about 0.4% fall back
    (mostly integers from 2**52 to 10**22, whose interval ends are integers);
    of the benchmark workloads' axes, none."""
    rng = np.random.default_rng(11)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    values = values[(np.abs(values) >= csvtext.MIN_PROVEN) & (np.abs(values) < csvtext.MAX_PROVEN)]
    json_text(values)
    assert len(fallbacks) < 0.01 * values.size
    fallbacks.clear()
    for start, stop, steps in ((0.0, 20.0, 401), (0.0, 20.0, 201), (0.0, 20.0, 1201),
                               (0.0, 2.0, 201), (0.0, 2.0, 51)):
        axis = np.linspace(start, stop, steps)
        assert texts(axis, "json") == reference(axis, "json")
    assert fallbacks == []


def neighbours(values, count):
    """values and their `count` nearest floats on either side."""
    out = [values]
    for direction in (-np.inf, np.inf):
        step = values
        for _ in range(count):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


@pytest.mark.parametrize("fmt", FORMATS)
def test_neighbours_of_powers_of_ten(fmt):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])  # correctly rounded
    values = neighbours(powers, 3)
    assert texts(values, fmt) == reference(values, fmt)
    assert texts(-values, fmt) == reference(-values, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_powers_of_two_and_neighbours(fmt):
    """The lower gap of a power of two is half its upper gap."""
    values = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 1)
    values = values[np.isfinite(values)]
    assert texts(values, fmt) == reference(values, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_integers_near_2_53_and_1e16(fmt):
    """Near 2**53 the spacing becomes 2, and at 10**16 repr switches to
    1e+16."""
    near = np.arange(-3000, 3000, dtype=np.int64)
    values = np.concatenate([(2**53 + near).astype(np.float64), (10**16 + near).astype(np.float64),
                             (10**15 + near).astype(np.float64)])
    assert texts(values, fmt) == reference(values, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_subnormals_zeros_and_non_finite(fmt):
    rng = np.random.default_rng(4)
    bits = np.concatenate([rng.integers(1, 2**52, 2000, dtype=np.uint64),
                           np.array([1, 2, 3, 2**52 - 1], dtype=np.uint64)])
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    values = np.concatenate([bits.view(np.float64), -bits.view(np.float64), special])
    assert texts(values, fmt) == reference(values, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_seventeen_digit_decimals_and_carries(fmt):
    # decimal 17-digit values, some of which round up to the next power of ten
    rng = np.random.default_rng(7)
    values = rng.integers(10**16, 10**17, 20_000) * 10.0 ** rng.integers(-40, 40, 20_000)
    carries = np.array([9.9999999999999999e22, 0.99999999999999994, 9.9999999999999995e-7])
    values = np.concatenate([values, carries])
    assert texts(values, fmt) == reference(values, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_shapes_and_empty(fmt):
    encode = FORMATS[fmt][0]
    values = np.arange(12.0).reshape(3, 4) / 7
    assert encode(values).shape == (3, 4, WIDTH)
    assert texts(values, fmt) == reference(values, fmt)
    assert encode(np.empty(0)).shape == (0, WIDTH)


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
