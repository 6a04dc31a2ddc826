"""The bulk number writer: ``_floattext.join_each`` and ``layout`` against ``float.__repr__`` and ``int.__repr__``."""

import math
import subprocess
import sys
from itertools import repeat

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
    got = _floattext.join_each([values], sep)[0]
    if got != reference(values, sep):
        pairs = zip(map(float.__repr__, values.tolist()), _floattext.join_each([values], "\n")[0].split("\n"))
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
        assert _floattext.join_each([np.array([])], ",") == [""]

    def test_a_million_values(self):
        rng = np.random.default_rng(20201)
        patterns = rng.integers(0, 2**63, 600_000, dtype=np.int64).view(np.float64)
        normal = rng.standard_normal(200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
        probabilities = rng.random(200_000) ** 8
        assert_matches(np.concatenate([patterns, -patterns[:1000], normal, probabilities]), ",")

    def test_longer_than_one_pass(self):
        values = np.random.default_rng(1).random(3 * _floattext._CHUNK + 7)
        assert_matches(values, ", ")


class TestJoinEach:
    """Several arrays in one pass over their concatenation, split back at the array boundaries."""

    @staticmethod
    def assert_each_matches(sizes, sep=",\n    "):
        rng = np.random.default_rng(sum(sizes))
        arrays = [rng.random(size) ** 8 * 10.0 ** rng.integers(-20, 20, size) for size in sizes]
        assert _floattext.join_each(arrays, sep) == [reference(values, sep) for values in arrays]

    @pytest.mark.parametrize("sizes", [[255], [256], [257], [128, 127], [128, 128], [128, 129], [1, 254, 2],
                                       [0, 256, 0], [100, 0, 157]])
    def test_totals_about_the_bulk_threshold(self, sizes):
        self.assert_each_matches(sizes)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_one_array_about_a_chunk(self, offset):
        self.assert_each_matches([_floattext._CHUNK + offset])

    # Two chunks' worth of rows make two passes that meet at _CHUNK.
    @pytest.mark.parametrize("sizes", [[_floattext._CHUNK - 5, 10, _floattext._CHUNK - 5],
                                       [_floattext._CHUNK + 1, _floattext._CHUNK - 1], [1, 2 * _floattext._CHUNK - 1],
                                       [_floattext._CHUNK, _floattext._CHUNK], [_floattext._CHUNK, 0, _floattext._CHUNK]])
    def test_arrays_that_meet_at_or_straddle_a_chunk_edge(self, sizes):
        self.assert_each_matches(sizes, ",")

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.floats(), max_size=12), max_size=6), st.sampled_from(SEPARATORS),
           st.sampled_from([1, 3, 8]))
    def test_any_arrays_and_chunks(self, lists, sep, chunk):
        arrays = [np.array(values, dtype=np.float64) for values in lists]
        default, _floattext._CHUNK = _floattext._CHUNK, chunk
        try:
            got = _floattext.join_each(arrays, sep)
        finally:
            _floattext._CHUNK = default
        assert got == [reference(values, sep) for values in arrays]


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


def ints_reference(values, sep):
    return sep.join(map(int.__repr__, np.asarray(values, dtype=np.int64).tolist()))


class TestIntCells:
    def test_every_digit_count_boundary(self):
        edges = [0, 2**63 - 1, 2**62, 2**53, 2**32]
        for k in range(1, 19):
            edges += [10**k - 1, 10**k, 10**k + 1]
        values = np.array(edges + [-v for v in edges] + [-(2**63), -(2**63) + 1], dtype=np.int64)
        assert _floattext.layout(values.size, [(values, None), ("\n", None)]) == ints_reference(values, "\n") + "\n"

    @pytest.mark.parametrize("values", [[0], [7, 0, 3], [-1], [10**18, 5], list(range(-20000, 20000, 7))])
    def test_a_column_is_as_wide_as_its_longest_int(self, values):
        values = np.array(values, dtype=np.int64)
        assert _floattext.layout(values.size, [("[", None), (values, None), ("]", None)]) == "".join(
            f"[{v}]" for v in values.tolist())


def layout_rows(n, segments):
    rows = [[] for _ in range(n)]
    for content, where in segments:
        where = range(n) if where is None else where.tolist()
        texts = repeat(content) if type(content) is str else map(repr, content.tolist())
        for row, text in zip(where, texts):
            rows[row].append(text)
    return list(map("".join, rows))


def layout_reference(n, segments):
    return "".join(layout_rows(n, segments))


_literals = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=4)


@st.composite
def layouts(draw):
    """Rows of literals, ints and floats, each segment on every row or on a sorted subset."""
    n = draw(st.integers(0, 40))
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.one_of(st.none(), st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(
            lambda s: np.array(sorted(s), dtype=np.int64))))
        size = n if rows is None else rows.size
        content = draw(st.one_of(
            _literals,
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size).map(
                lambda v: np.array(v, dtype=np.int64)),
            st.lists(st.floats(), min_size=size, max_size=size).map(lambda v: np.array(v, dtype=np.float64)),
        ))
        segments.append((content, rows))
    return n, segments


class TestLayout:
    @settings(max_examples=200)
    @given(layouts(), st.sampled_from([1, 3, 8, _floattext._CHUNK]))
    def test_matches_the_rows_written_one_by_one(self, case, chunk):
        n, segments = case
        default, _floattext._CHUNK = _floattext._CHUNK, chunk
        try:
            assert _floattext.layout(n, segments) == layout_reference(n, segments)
        finally:
            _floattext._CHUNK = default

    @settings(max_examples=200)
    @given(layouts(), st.lists(st.integers(0, 40), max_size=4), st.sampled_from([1, 3, 8, _floattext._CHUNK]))
    def test_cut_into_row_ranges(self, case, cuts, chunk):
        n, segments = case
        cuts = sorted(min(cut, n) for cut in cuts)
        default, _floattext._CHUNK = _floattext._CHUNK, chunk
        try:
            texts = _floattext.layout(n, segments, cuts)
        finally:
            _floattext._CHUNK = default
        rows, bounds = layout_rows(n, segments), [0, *cuts, n]
        assert texts == ["".join(rows[a:b]) for a, b in zip(bounds, bounds[1:])]

    def test_rows_on_both_sides_of_a_chunk_edge(self):
        n = 2 * _floattext._CHUNK + 5
        rng = np.random.default_rng(3)
        every_third = np.arange(0, n, 3)
        segments = [("<", np.array([0])), (rng.integers(-99, 10**6, n), None), (",", None),
                    (rng.standard_normal(every_third.size), every_third), ("|", np.arange(1, n, 2)), ("\n", None)]
        assert _floattext.layout(n, segments) == layout_reference(n, segments)

    def test_other_dtypes_are_refused(self):
        with pytest.raises(TypeError):
            _floattext.layout(2, [(np.array([1, 2], dtype=np.int32), None)])
