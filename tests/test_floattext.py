"""The bulk float writer: ``_floattext.join`` against ``float.__repr__``."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strobewalk import _floattext

SEPARATORS = [",", ",\n    ", ""]


def reference(values, sep):
    return sep.join(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist()))


def assert_matches(values, sep=",\n  "):
    values = np.asarray(values, dtype=np.float64)
    got = _floattext.join(values, sep)
    if got != reference(values, sep):
        pairs = zip(map(float.__repr__, values.tolist()), _floattext.join(values, "\n").split("\n"))
        wrong = [(want, have) for want, have in pairs if want != have]
        pytest.fail(f"{len(wrong)} of {values.size} differ, first {wrong[:5]}")


def as_floats(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


class TestProperties:
    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=50), st.sampled_from(SEPARATORS))
    def test_any_bit_pattern(self, patterns, sep):
        assert_matches(as_floats(patterns), sep)

    @settings(max_examples=200)
    @given(st.lists(st.floats(), max_size=50))
    def test_any_float(self, values):
        assert_matches(values)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(1, 99), st.integers(-330, 310), st.booleans()), max_size=50))
    def test_one_and_two_digit_decimals(self, terms):
        # d * 10**k, rounded to the nearest double by the parser: the short output, the hard case.
        assert_matches([float(f"{'-' if negative else ''}{d}e{k}") for d, k, negative in terms])


class TestTables:
    def test_every_power_of_two(self):
        assert_matches(np.ldexp(1.0, np.arange(-1074, 1024)))

    def test_every_power_of_ten_and_its_neighbours(self):
        assert_matches(neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    @pytest.mark.parametrize("edge", [1e16, 1e-4])
    def test_both_sides_of_the_notation_edges(self, edge):
        below = np.nextafter(edge, 0.0)
        values = neighbours([edge, below, np.nextafter(below, 0.0), edge * (1 - 2**-52)])
        assert_matches(np.concatenate([values, -values]))

    def test_integers_up_to_two_to_the_53(self):
        rng = np.random.default_rng(53)
        ints = np.concatenate([np.arange(-1000, 1001), 2 ** np.arange(54) - 1, 10 ** np.arange(16),
                               rng.integers(0, 2**53, 20000)])
        assert_matches(ints.astype(np.float64))
        assert_matches(np.float64(2**53) + np.arange(-8, 9) * 2.0)

    def test_special_values(self):
        tiny = 5e-324
        specials = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
                    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0]
        assert_matches(specials)
        assert _floattext.join(np.array([]), ",") == ""

    def test_a_million_values(self):
        rng = np.random.default_rng(20201)
        patterns = rng.integers(0, 2**63, 600_000, dtype=np.int64).view(np.float64)
        normal = rng.standard_normal(200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
        probabilities = rng.random(200_000) ** 8
        assert_matches(np.concatenate([patterns, -patterns[:1000], normal, probabilities]), ",")

    def test_longer_than_one_pass(self):
        values = np.random.default_rng(1).random(3 * _floattext._CHUNK + 7)
        assert_matches(values, ", ")


def test_importing_the_cli_loads_no_kernel():
    code = "import sys, strobewalk.cli; print('strobewalk._floattext' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_tables_are_built_on_first_use():
    _floattext._tables.cache_clear()
    assert _floattext._tables.cache_info().currsize == 0
    assert_matches([0.1, 2.5e-300])
    assert _floattext._tables.cache_info().currsize == 1


def test_g_table_is_the_definition():
    g = _floattext._g_table()
    for index, k in enumerate(range(-324, 293)):
        r = _floattext._flog2pow10(-k) - 125
        exact = (1 << -r) // 10**k if k > 0 else (10**-k >> r if r >= 0 else 10**-k << -r)
        assert int.from_bytes(g[16 * index:16 * index + 16], "little") == exact + 1
        assert 2**125 < exact + 1 <= 2**126
