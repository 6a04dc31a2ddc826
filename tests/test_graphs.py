"""Graph generators, Hamiltonian assembly and the JSON file format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import strobewalk as sw
from strobewalk.errors import GraphFormatError, GraphInvariantError, GraphSpecError

import helpers

# Adjacency of the two-generation binary tree in breadth-first order.
TREE2_ADJACENCY = np.array(
    [
        [0, 1, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0],
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
    ],
    dtype=float,
)


def edge_pairs(g):
    return set(zip(g.tails.tolist(), g.heads.tolist()))


def degrees(g):
    return np.bincount(np.concatenate((g.tails, g.heads)), minlength=g.node_count).tolist()


class TestGenerators:
    def test_ring6_structure(self):
        g = helpers.graph("ring:6")
        assert g.node_count == 6
        assert edge_pairs(g) == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
        assert g.weights.tolist() == [1.0] * 6
        assert g.onsite.tolist() == [0.0] * 6

    def test_tree2_matches_reference_adjacency(self):
        g = helpers.graph("tree:2")
        assert edge_pairs(g) == set(zip(*np.nonzero(np.triu(TREE2_ADJACENCY))))

    def test_cross4_center_hub(self):
        g = helpers.graph("cross:4")
        assert g.node_count == 5
        assert edge_pairs(g) == {(0, 1), (0, 2), (0, 3), (0, 4)}

    def test_square_center_structure(self):
        g = helpers.graph("square_center")
        assert g.node_count == 5
        assert degrees(g) == [3, 3, 3, 3, 4]

    @pytest.mark.parametrize(
        "spec, degree",
        [("ring:5", 2), ("ring:8", 2), ("hypercube:1", 1), ("hypercube:3", 3),
         ("hypercube:4", 4), ("complete:4", 3), ("complete:8", 7), ("lattice:3x4", 4),
         ("lattice:4x4", 4)],
    )
    def test_degree_sequences(self, spec, degree):
        g = helpers.graph(spec)
        assert set(degrees(g)) == {degree}

    def test_adjacency_is_symmetric(self):
        for spec in ("ring:7", "hypercube:3", "tree:3", "lattice:3x5", "square_center"):
            g = helpers.graph(spec)
            assert (g.tails < g.heads).all()
            a = sw.hamiltonian(g, 1.0)
            np.testing.assert_array_equal(a, a.T)

    def test_hypercube_edges_flip_one_bit(self):
        g = helpers.graph("hypercube:3")
        for i, j in edge_pairs(g):
            assert bin(i ^ j).count("1") == 1

    def test_lattice_wraps_periodically(self):
        g = helpers.graph("lattice:3x3")
        assert (0, 2) in edge_pairs(g)  # horizontal wrap in row 0
        assert (0, 6) in edge_pairs(g)  # vertical wrap in column 0

    @pytest.mark.parametrize(
        "spec",
        ["ring:2", "complete:1", "hypercube:0", "hypercube:11", "tree:0",
         "cross:0", "lattice:2x4", "lattice:4x2", "lattice:44", "square_center:3",
         "moebius:5", ""],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(GraphSpecError):
            sw.build_named(spec)


class TestHamiltonian:
    def test_single_edge(self):
        h = sw.hamiltonian(helpers.graph("complete:2"), 1.0)
        np.testing.assert_array_equal(h, [[0.0, -1.0], [-1.0, 0.0]])

    def test_ring6_eigenvalues_match_closed_form(self):
        # Independent oracle: the cycle spectrum -2*cos(2*pi*k/6).
        expected = sorted(-2.0 * math.cos(2.0 * math.pi * k / 6.0) for k in range(6))
        got = np.linalg.eigvalsh(helpers.ham("ring:6"))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_tree2_matrix_entrywise(self):
        h = sw.hamiltonian(helpers.graph("tree:2"), 1.0)
        np.testing.assert_array_equal(h, -TREE2_ADJACENCY)

    def test_linear_in_gamma(self):
        g = helpers.graph("square_center")
        h1 = sw.hamiltonian(g, 0.7)
        h2 = sw.hamiltonian(g, 1.4)
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_array_equal(h2[off], 2.0 * h1[off])

    def test_onsite_on_diagonal_unscaled_by_gamma(self):
        g = sw.WeightedGraph(2, [0], [1], [2.0], (0.5, -0.25))
        h = sw.hamiltonian(g, 3.0)
        np.testing.assert_array_equal(h, [[0.5, -6.0], [-6.0, -0.25]])

    def test_rejects_nonfinite_gamma(self):
        with pytest.raises(ValueError):
            sw.hamiltonian(helpers.graph("ring:3"), float("nan"))


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphInvariantError):
            helpers.edge_graph(2, [(0, 0, 1.0)])

    def test_duplicate_edge_rejected_either_orientation(self):
        with pytest.raises(GraphInvariantError):
            helpers.edge_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GraphInvariantError):
            helpers.edge_graph(2, [(0, 2, 1.0)])

    def test_a_non_integer_index_is_rejected(self):
        # a comparison accepts 1.5, which hamiltonian then cannot index
        with pytest.raises(GraphInvariantError, match=r"edges\[0\]: node index must be an integer, got 1.5"):
            sw.WeightedGraph(3, [0], [1.5], [1.0], (0.0, 0.0, 0.0))

    def test_a_bool_index_is_rejected(self):
        # True compares as 1, but a saved [true, 2, 1.0] is no edge for load_graph
        for index in (True, np.True_):
            with pytest.raises(GraphInvariantError, match="node index must be an integer"):
                sw.WeightedGraph(3, [index], [2], [1.0], (0.0, 0.0, 0.0))

    def test_numpy_indices_are_kept_as_python_ints(self):
        # The arrays are intp; the node count, and the indices a graph document holds, are ints.
        g = sw.WeightedGraph(np.int64(3), [np.int64(0)], [np.int32(2)], [1.0], (0.0, 0.0, 0.0))
        assert type(g.node_count) is int and helpers.edge_triples(g) == [(0, 2, 1.0)]
        assert g.tails.dtype == g.heads.dtype == np.intp
        assert all(type(i) is int for edge in sw.graph_document(g)["edges"] for i in edge[:2])
        assert sw.load_graph(sw.save_graph(g)) == g

    @pytest.mark.parametrize("count", [True, 3.0, "3"])
    def test_a_non_integer_node_count_is_rejected(self, count):
        with pytest.raises(GraphInvariantError, match="node_count must be an integer"):
            sw.WeightedGraph(count, (), (), (), (0.0,) * 3)

    @pytest.mark.parametrize("args, message", [
        ((0, [], [], [], []), "node_count must be positive, got 0"),
        ((2, [0], [1], [1.0], [0.0, 0.0], ("a",)), "labels has length 1, expected 2"),
    ], ids=["no-nodes", "labels-length"])
    def test_a_node_count_or_labels_that_do_not_fit_are_rejected(self, args, message):
        with pytest.raises(GraphInvariantError, match=f"^{message}$"):
            sw.WeightedGraph(*args)

    def test_onsite_length_mismatch_rejected(self):
        with pytest.raises(GraphInvariantError):
            sw.WeightedGraph(3, (), (), (), (0.0, 0.0))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(GraphInvariantError):
            helpers.edge_graph(2, [(0, 1, float("inf"))])


class TestFileFormat:
    def test_minimal_two_node_file(self):
        g = sw.load_graph(b'{"nodes": 2, "edges": [[0, 1]]}')
        assert g.node_count == 2
        assert helpers.edge_triples(g) == [(0, 1, 1.0)]
        assert g.onsite.tolist() == [0.0, 0.0]
        assert g.labels is None

    def test_round_trip_generator(self):
        g = helpers.graph("cross:4")
        assert sw.load_graph(sw.save_graph(g)) == g

    def test_round_trip_weighted_labeled(self):
        g = helpers.edge_graph(
            3,
            [(0, 1, 0.1), (1, 2, -1.0 / 3.0), (0, 2, 5e-324)],
            onsite=(0.3333333333333333, -2.5e17, 0.0),
            labels=("a", "b", "c"),
        )
        assert sw.load_graph(sw.save_graph(g)) == g

    def test_self_loop_file_rejected(self):
        with pytest.raises(GraphInvariantError):
            sw.load_graph(b'{"nodes": 2, "edges": [[0, 0, 1.0]]}')

    def test_parse_error_reports_location(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            sw.load_graph(b'{"nodes": 2,GARBAGE}')
        with pytest.raises(GraphFormatError, match="^not UTF-8 text: invalid start byte at byte 25$"):
            sw.load_graph(b'{"nodes": 2, "labels": ["\xff", "b"]}')

    def test_field_errors_name_the_field(self):
        with pytest.raises(GraphFormatError, match="nodes"):
            sw.load_graph(b'{"edges": []}')
        with pytest.raises(GraphFormatError, match=r"edges\[1\]"):
            sw.load_graph(b'{"nodes": 2, "edges": [[0, 1], [0]]}')
        with pytest.raises(GraphFormatError, match="onsite"):
            sw.load_graph(b'{"nodes": 1, "edges": [], "onsite": ["x"]}')
        with pytest.raises(GraphFormatError, match="labels"):
            sw.load_graph(b'{"nodes": 1, "edges": [], "labels": [1]}')

    @pytest.mark.parametrize("edges, error, message", [
        ([[0, 1], 5], GraphFormatError, "edges[1]: expected [i, j] or [i, j, w], got 5"),
        ([[0, 1, 1.0, 2]], GraphFormatError, "edges[0]: expected [i, j] or [i, j, w], got [0, 1, 1.0, 2]"),
        ([[0]], GraphFormatError, "edges[0]: expected [i, j] or [i, j, w], got [0]"),
        ([[0, 1.0]], GraphFormatError, "edges[0]: node indices must be integers, got [0, 1.0]"),
        ([[0, "1", 2.0]], GraphFormatError, "edges[0]: node indices must be integers, got [0, '1', 2.0]"),
        ([[True, 1]], GraphFormatError, "edges[0]: node indices must be integers, got [True, 1]"),
        ([[0, 1, "x"]], GraphFormatError, "edges[0]: weight must be a number, got 'x'"),
        ([[0, 1, None]], GraphFormatError, "edges[0]: weight must be a number, got None"),
        ([[0, 1, False]], GraphFormatError, "edges[0]: weight must be a number, got False"),
        ([[0, 1], [2, 3]], GraphInvariantError, "edges[1]: node index out of range for 3 nodes: (2, 3)"),
        ([[-1, 1]], GraphInvariantError, "edges[0]: node index out of range for 3 nodes: (-1, 1)"),
        ([[0, 1], [2, 2, 1.0]], GraphInvariantError, "edges[1]: self-loop (2, 2) is not allowed"),
        ([[0, 1, "Infinity"]], GraphInvariantError, "edges[0]: weight must be finite, got inf"),
        ([[0, 1, "NaN"]], GraphInvariantError, "edges[0]: weight must be finite, got nan"),
        ([[0, 1, "1e400"]], GraphInvariantError, "edges[0]: weight must be finite, got inf"),
        ([[0, 1], [2, 1], [1, 0, 2.0]], GraphInvariantError, "edges[2]: duplicate edge (0, 1)"),
    ], ids=["non-list", "too-long", "too-short", "float-index", "str-index", "bool-index",
            "str-weight", "null-weight", "bool-weight", "out-of-range", "negative-index",
            "self-loop", "infinite", "nan", "overflow", "duplicate"])
    def test_each_edge_fault_has_its_own_class_and_message(self, edges, error, message):
        # Quoted non-finite numbers become JSON's bare Infinity, NaN and 1e400.
        text = json.dumps({"nodes": 3, "edges": edges})
        for word in ("Infinity", "NaN", "1e400"):
            text = text.replace(f'"{word}"', word)
        with pytest.raises(error) as caught:
            sw.load_graph(text)
        assert type(caught.value) is error
        assert str(caught.value) == message


finite_weights = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def arbitrary_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    edges = tuple((i, j, draw(finite_weights)) for i, j in chosen)
    onsite = tuple(draw(st.lists(finite_weights, min_size=n, max_size=n)))
    labels = draw(st.none() | st.lists(st.text(max_size=5), min_size=n, max_size=n).map(tuple))
    return helpers.edge_graph(n, edges, onsite, labels)


@given(arbitrary_graphs())
def test_round_trip_is_bit_exact(g):
    restored = sw.load_graph(sw.save_graph(g))
    assert restored == g
    # and the serialized form is stable under a second pass
    assert sw.save_graph(restored) == sw.save_graph(g)


@given(arbitrary_graphs(), st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_hamiltonian_is_hermitian_and_respects_graph(g, gamma):
    largest = max((abs(w) for _, _, w in helpers.edge_triples(g)), default=0.0)
    if not math.isfinite(gamma * largest):
        with pytest.raises(ValueError, match="gamma"):
            sw.hamiltonian(g, gamma)
        return
    h = sw.hamiltonian(g, gamma)
    np.testing.assert_array_equal(h, h.T)
    for i, j, w in helpers.edge_triples(g):
        assert h[i, j] == -gamma * w
    for i, e in enumerate(g.onsite.tolist()):
        assert h[i, i] == e


@st.composite
def point_pairs(draw):
    """A point count up to 40 and pairs of its points, self-pairs and repeats among them."""
    n = draw(st.integers(min_value=0, max_value=40))
    if not n:
        return 0, []
    points = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(points, points), max_size=2 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return n, pairs


@given(point_pairs())
def test_components_are_the_breadth_first_ones_numbered_by_least_point(case):
    n, pairs = case
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    b = np.array([j for _, j in pairs], dtype=np.intp)
    neighbours = [[] for _ in range(n)]
    for i, j in pairs:
        neighbours[i].append(j)
        neighbours[j].append(i)
    # Searched from each unlabelled point in ascending order, a component gets its number at its least point.
    expected, count = [-1] * n, 0
    for start in range(n):
        if expected[start] < 0:
            expected[start], queue = count, [start]
            for i in queue:
                for j in neighbours[i]:
                    if expected[j] < 0:
                        expected[j] = count
                        queue.append(j)
            count += 1
    assert sw.graphs._components(n, a, b).tolist() == expected


def test_an_overflowing_coupling_names_gamma_and_the_weight():
    # -1e308 * 10 is -inf: the matrix would be refused later as "not Hermitian"
    g = helpers.edge_graph(3, [(0, 1, 1.0), (1, 2, 10.0)])
    with pytest.raises(ValueError, match=r"gamma=1e\+308, and the largest \|weight\| is 10\.0"):
        sw.hamiltonian(g, 1e308)
    assert sw.hamiltonian(g, 1e307)[1, 2] == -1e308


def test_save_uses_shortest_round_trip_doubles():
    g = helpers.edge_graph(2, [(0, 1, 0.1)])
    doc = json.loads(sw.save_graph(g))
    assert doc["edges"][0][2] == 0.1
    assert "0.1" in sw.save_graph(g).decode()


class TestArraysAgainstTheEdgeLoop:
    """The arrays, ``H`` and the file against the tuple-based graph of ``helpers.oracle_graph``."""

    @staticmethod
    def random_edges(rng, n, index_type):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        rng.shuffle(pairs)
        weights = rng.choice([1.0, -0.5, 2.0, 0.1, 1e-300, -7.25e12], size=len(pairs)).tolist()
        return [(index_type(j), index_type(i), w) if rng.random() < 0.5 else (index_type(i), index_type(j), w)
                for (i, j), w in zip(pairs, weights)]

    @pytest.mark.parametrize("index_type", [int, np.int64], ids=["int", "int64"])
    def test_arrays_hamiltonian_and_file_match_the_oracle(self, index_type):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            edges = self.random_edges(rng, n, index_type)
            onsite = rng.uniform(-2.0, 2.0, n).tolist() if rng.random() < 0.5 else [0.0] * n
            labels = [f"v{r}" for r in range(n)] if rng.random() < 0.5 else None
            g = helpers.edge_graph(index_type(n), edges, onsite, labels)
            want = helpers.oracle_graph(index_type(n), edges, onsite, labels)
            assert helpers.edge_triples(g) == list(want.edges)
            assert g.tails.dtype == g.heads.dtype == np.intp and g.weights.dtype == g.onsite.dtype == np.float64
            assert g.onsite.tolist() == list(want.onsite) and g.labels == want.labels
            for gamma in (1.0, 0.7, -3.0):
                assert sw.hamiltonian(g, gamma).tobytes() == helpers.oracle_hamiltonian(want, gamma).tobytes()
            assert sw.save_graph(g) == helpers.oracle_save_graph(want)
            assert sw.load_graph(sw.save_graph(g)) == g

    def test_the_arrays_are_read_only_and_the_graph_unhashable(self):
        g = helpers.graph("ring:5")
        for array in (g.tails, g.heads, g.weights, g.onsite):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(TypeError):
            hash(g)

    def test_the_constructor_copies_its_inputs(self):
        tails, heads, onsite = np.array([0, 2]), np.array([1, 1]), np.zeros(3)
        g = sw.WeightedGraph(3, tails, heads, np.ones(2), onsite)
        tails[0], onsite[0] = 2, 5.0
        assert helpers.edge_triples(g) == [(0, 1, 1.0), (1, 2, 1.0)] and g.onsite.tolist() == [0.0] * 3
        assert tails.flags.writeable and onsite.flags.writeable

    @pytest.mark.parametrize("edges, onsite", [
        ([(0, 1.5, 1.0)], None),
        ([(True, 2, 1.0)], None),
        ([(np.True_, 2, 1.0)], None),
        ([(0, 1, 1.0), (1, False, 1.0)], None),
        ([(0, "1", 1.0)], None),
        ([(0, np.float64(1.0), 1.0)], None),
        ([(0, 3, 1.0)], None),
        ([(-1, 1, 1.0)], None),
        ([(0, 10**30, 1.0)], None),
        ([(0, 1, 1.0), (2, 2, 1.0)], None),
        ([(0, 1, 1.0), (2, 1, 1.0), (1, 0, 2.0)], None),
        ([(0, 1, float("inf"))], None),
        ([(0, 1, float("nan"))], None),
        ([(0, 1, "x")], None),
        ([(0, 1, None)], None),
        ([(0, 1, 10**400)], None),
        ([(0, 1, "2.5"), (1, 2, 1.0)], None),
        # the first bad edge wins, whatever its fault and whatever comes after it
        ([(0, 1, 1.0), (1, 1, 1.0), (0, 1.5, 1.0), (0, 9, 1.0), (0, 2, "x")], None),
        ([(0, 1, 1.0), (0, 2, "x"), (1, 1, 1.0)], None),
        ([(0, 1, 1.0), (1, 0, float("inf"))], None),
        # one edge with several faults reports the first check it fails
        ([(5, 5, float("nan"))], None),
        ([(True, 9, 1.0)], None),
        ([(1, 1, float("inf"))], None),
        ([(0, 1, 1.0)], (0.0, 0.0)),
        ([(0, 1, 1.0)], (0.0, float("inf"), 0.0)),
        ([(0, 1, 1.0)], (0.0, "y", 0.0)),
    ], ids=["float-index", "bool-index", "numpy-bool-index", "false-head", "str-index", "numpy-float-index",
            "out-of-range", "negative", "huge", "self-loop", "duplicate", "infinite", "nan", "str-weight",
            "none-weight", "huge-weight", "numeric-str-weight", "first-bad-edge", "weight-error-first",
            "duplicate-before-infinite", "range-before-loop", "type-before-range", "loop-before-weight",
            "onsite-length", "onsite-infinite", "onsite-str"])
    def test_each_bad_input_raises_the_oracles_error_and_message(self, edges, onsite):
        onsite = (0.0,) * 3 if onsite is None else onsite
        try:
            want = helpers.oracle_graph(3, edges, onsite)
        except Exception as exc:  # noqa: BLE001 - the oracle's own error is the expectation
            with pytest.raises(type(exc)) as caught:
                helpers.edge_graph(3, edges, onsite)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
        else:
            g = helpers.edge_graph(3, edges, onsite)
            assert helpers.edge_triples(g) == list(want.edges)

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(GraphInvariantError, match="tails, heads and weights have lengths 2, 1 and 1"):
            sw.WeightedGraph(3, [0, 1], [1], [1.0], (0.0,) * 3)

    @pytest.mark.parametrize("spec, pairs", [
        ("ring:7", [(r, (r + 1) % 7) for r in range(7)]),
        ("complete:6", [(i, j) for i in range(6) for j in range(i + 1, 6)]),
        ("hypercube:4", [(v, v ^ (1 << b)) for v in range(16) for b in range(4) if v < v ^ (1 << b)]),
        ("tree:4", [(v, c) for v in range(15) for c in (2 * v + 1, 2 * v + 2)]),
        ("cross:5", [(0, k) for k in range(1, 6)]),
        ("square_center", [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
        ("lattice:5x3", sorted({(min(v, w), max(v, w)) for y in range(3) for x in range(5) for v, w in
                                ((5 * y + x, 5 * y + (x + 1) % 5), (5 * y + x, 5 * ((y + 1) % 3) + x))})),
    ])
    def test_generators_give_the_edge_order_of_their_loops(self, spec, pairs):
        g = helpers.graph(spec)
        n = max(max(p) for p in pairs) + 1
        assert sw.save_graph(g) == helpers.oracle_save_graph(helpers.oracle_graph(n, [(i, j, 1.0) for i, j in pairs], (0.0,) * n))


class TestSizeLimits:
    """Node and edge counts are checked before any per-node or per-edge array is built."""

    @pytest.mark.parametrize("spec, message", [
        ("ring:1000000000", "graph has 1000000000 nodes, above the limit of 65536"),
        ("complete:1000000", "graph has 1000000 nodes, above the limit of 65536"),
        ("complete:2000", "graph has 1999000 edges, above the limit of 1048576"),
        ("tree:16", "graph has 131071 nodes, above the limit of 65536"),
        ("tree:1000000000", "graph has 2**1000000001 - 1 nodes, above the limit of 65536"),
        ("cross:65536", "graph has 65537 nodes, above the limit of 65536"),
        ("lattice:100000x100000", "graph has 10000000000 nodes, above the limit of 65536"),
    ])
    def test_a_spec_above_the_limits_builds_nothing(self, spec, message):
        with pytest.raises(sw.GraphSizeError) as caught:
            sw.build_named(spec)
        assert str(caught.value) == message

    def test_the_limits_admit_tree_12_and_lattice_256x256(self):
        assert sw.graphs.MAX_NODES > helpers.graph("tree:12").node_count
        assert sw.build_named("lattice:256x256").edge_count == 131072 <= sw.graphs.MAX_EDGES
        assert sw.build_named("tree:15").node_count == 65535

    def test_a_file_declaring_a_billion_nodes_is_refused_before_its_lists(self):
        with pytest.raises(sw.GraphSizeError, match="^graph has 1000000000 nodes, above the limit of 65536$"):
            sw.load_graph(b'{"nodes": 1000000000}')

    def test_the_constructor_checks_the_counts_first(self):
        with pytest.raises(sw.GraphSizeError, match="1000000000 nodes"):
            sw.WeightedGraph(10**9, [], [], [], ())
        with pytest.raises(sw.GraphSizeError, match="2000000 edges"):
            sw.WeightedGraph(3, range(2 * 10**6), range(2 * 10**6), range(2 * 10**6), ())
