"""Weighted graphs, named graph generators, Hamiltonian assembly and JSON I/O.

A graph walk Hamiltonian is built as ``H[i, j] = -gamma * w`` for every
undirected edge ``(i, j, w)`` and ``H[i, i] = onsite[i]``.  All generators
emit unit weights, zero on-site energies and a documented node ordering.

A graph holds its edge list in one form, three read-only arrays with an
entry per edge: ``tails`` and ``heads`` (intp, ``tails < heads``) and
``weights`` (float64); its on-site energies are a fourth, ``onsite``.  The
generators build these arrays, :func:`load_graph` converts the file's
lists once, and :func:`hamiltonian`, the symmetry search and the quotient
read them in place.  A graph's node and edge counts are checked against
``MAX_NODES`` and ``MAX_EDGES`` before any per-node or per-edge array is
built, so a generator spec or a file that declares a billion nodes
allocates nothing.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import GraphFormatError, GraphInvariantError, GraphSizeError, GraphSpecError

__all__ = [
    "WeightedGraph",
    "build_named",
    "hamiltonian",
    "load_graph",
    "save_graph",
    "graph_document",
    "GENERATOR_NAMES",
    "MAX_NODES",
    "MAX_EDGES",
]

#: Most nodes a graph may have: 8 times tree:12's 8191, and a per-node array of 512 KiB.
MAX_NODES = 1 << 16
#: Most edges a graph may have: 8 times lattice:256x256's 131072, and 8 MiB an edge column.
MAX_EDGES = 1 << 20

_ARRAYS = ("tails", "heads", "weights", "onsite")


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph with per-node on-site energies.

    Edge ``k`` joins ``tails[k] < heads[k]`` with weight ``weights[k]`` and
    couples both directions.  The constructor takes the three edge columns
    in either orientation, as arrays or as sequences of numbers, and keeps
    them, and ``onsite``, as read-only arrays; edges keep their order.
    Instances are immutable and safe to share between threads.  Two graphs
    are equal when their node counts, arrays and labels are; a graph is not
    hashable.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    onsite: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = _index(self.node_count, "node_count")
        if n < 1:
            raise GraphInvariantError(f"node_count must be positive, got {n}")
        m = len(self.weights)
        if not len(self.tails) == len(self.heads) == m:
            raise GraphInvariantError(
                f"tails, heads and weights have lengths {len(self.tails)}, {len(self.heads)} and {m}"
            )
        _check_size(n, m)
        tails, heads, weights = _edge_arrays(n, self.tails, self.heads, self.weights)
        if len(self.onsite) != n:
            raise GraphInvariantError(f"onsite has length {len(self.onsite)}, expected {n}")
        onsite, taken = _floats(self.onsite)
        if taken < n:
            float(self.onsite[taken])  # raises the error of float()
        if not np.isfinite(onsite).all():
            raise GraphInvariantError("onsite energies must be finite")
        object.__setattr__(self, "node_count", n)
        for name, array in zip(_ARRAYS, (tails, heads, weights, onsite)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.labels is not None:
            labels = tuple(map(str, self.labels))
            if len(labels) != n:
                raise GraphInvariantError(f"labels has length {len(labels)}, expected {n}")
            object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.node_count == other.node_count and self.labels == other.labels
                and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS))

    @property
    def edge_count(self) -> int:
        return self.tails.shape[0]


def _index(value, what: str) -> int:
    """``value`` as a Python int, if it is an integer and no bool; else :class:`GraphInvariantError`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GraphInvariantError(f"{what} must be an integer, got {value!r}")


def _check_size(nodes: int, edges: int) -> None:
    """Raise :class:`GraphSizeError` for a graph above ``MAX_NODES`` or ``MAX_EDGES``."""
    if nodes > MAX_NODES:
        raise GraphSizeError(f"graph has {nodes} nodes, above the limit of {MAX_NODES}")
    if edges > MAX_EDGES:
        raise GraphSizeError(f"graph has {edges} edges, above the limit of {MAX_EDGES}")


def _node_indices(column, count: int) -> tuple[np.ndarray, np.ndarray]:
    """A column of node indices as an array, and the mask of its entries that are no integers.

    An integer is what ``operator.index`` takes, bools excepted; the other
    entries read 0.  Python ints beyond intp stay exact, in an object array.
    """
    bad = np.zeros(count, dtype=bool)
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return column, bad
    types = set(map(type, column))
    bad_types = {t for t in types if issubclass(t, (bool, np.bool_)) or not hasattr(t, "__index__")}
    if bad_types:
        bad = np.fromiter(map(bad_types.__contains__, map(type, column)), bool, count)
        column = np.fromiter(column, object, count)
        column[bad] = 0
    if not types <= {int}:
        column = list(map(operator.index, column))
    try:
        return np.array(column, dtype=np.intp), bad
    except OverflowError:
        return np.array(column, dtype=object), bad


def _floats(values) -> tuple[np.ndarray, int]:
    """``values`` as a float64 array, and how many leading entries ``float`` takes; the rest read 0."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return values.astype(np.float64), len(values)
    taken: list[float] = []
    try:
        taken.extend(map(float, values))  # keeps the entries before one that float() refuses
    except (TypeError, ValueError, OverflowError):
        pass
    count = len(taken)
    taken.extend(repeat(0.0, len(values) - count))
    return np.array(taken, dtype=np.float64), count


def _edge_arrays(n: int, tails, heads, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge columns as intp, intp and float64 arrays with ``tails < heads``.

    Each check runs on every edge at once.  A bad edge list raises what an
    edge-by-edge pass would: the first edge that fails a check, with the
    first check it fails, in this order: each end an integer, both ends in
    range, no self-loop, a weight that ``float`` takes, a finite weight,
    and a node pair that no earlier edge has.
    """
    m = len(weights)
    i, i_bad = _node_indices(tails, m)
    j, j_bad = _node_indices(heads, m)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    outside = (lo < 0) | (hi >= n)
    loop = lo == hi
    w, taken = _floats(weights)
    refused = np.arange(m) == taken
    infinite = ~np.isfinite(w)
    if outside.any():
        lo, hi = np.where(outside, 0, lo), np.where(outside, 0, hi)
    lo, hi = lo.astype(np.intp, copy=False), hi.astype(np.intp, copy=False)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(m, dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    faults = np.array([i_bad, j_bad, outside, loop, refused, infinite, repeated])
    hit = faults.any(axis=0)
    if hit.any():
        k = int(hit.argmax())
        check = int(faults[:, k].argmax())
        if check == 4:
            float(weights[k])  # raises the error of float()
        a, b = int(i[k]), int(j[k])
        raise GraphInvariantError(f"edges[{k}]: " + (
            f"node index must be an integer, got {tails[k]!r}",
            f"node index must be an integer, got {heads[k]!r}",
            f"node index out of range for {n} nodes: ({a}, {b})",
            f"self-loop ({a}, {b}) is not allowed",
            "",
            f"weight must be finite, got {float(w[k])}",
            f"duplicate edge {(int(lo[k]), int(hi[k]))}",
        )[check])
    return lo, hi, w


def _unit_graph(node_count: int, tails: np.ndarray, heads: np.ndarray) -> WeightedGraph:
    return WeightedGraph(node_count, tails, heads, np.ones(tails.shape[0]), np.zeros(node_count))


def _ring(n: int) -> WeightedGraph:
    if n < 3:
        raise GraphSpecError(f"ring:N requires N >= 3, got {n}")
    _check_size(n, n)
    nodes = np.arange(n)
    return _unit_graph(n, nodes, (nodes + 1) % n)


def _complete(n: int) -> WeightedGraph:
    if n < 2:
        raise GraphSpecError(f"complete:N requires N >= 2, got {n}")
    _check_size(n, n * (n - 1) // 2)
    return _unit_graph(n, *np.triu_indices(n, 1))


def _hypercube(d: int) -> WeightedGraph:
    if not 1 <= d <= 10:
        raise GraphSpecError(f"hypercube:d requires 1 <= d <= 10, got {d}")
    n = 1 << d
    # Node v then bit b, as in a loop over v and b: v joins v ^ (1 << b) where that is larger.
    tails = np.repeat(np.arange(n), d)
    heads = tails ^ np.tile(1 << np.arange(d), n)
    keep = tails < heads
    return _unit_graph(n, tails[keep], heads[keep])


def _tree(generations: int) -> WeightedGraph:
    # Breadth-first ordering: root 0, then each generation left to right;
    # children of node v are 2v+1 and 2v+2.
    if generations < 1:
        raise GraphSpecError(f"tree:g requires g >= 1, got {generations}")
    if generations >= MAX_NODES.bit_length():  # compare exponents: 2**(g + 1) may be a huge int
        raise GraphSizeError(f"graph has 2**{generations + 1} - 1 nodes, above the limit of {MAX_NODES}")
    n = (1 << (generations + 1)) - 1
    _check_size(n, n - 1)
    internal = (1 << generations) - 1
    return _unit_graph(n, np.repeat(np.arange(internal), 2), np.arange(1, n))


def _cross(arms: int) -> WeightedGraph:
    if arms < 1:
        raise GraphSpecError(f"cross:m requires m >= 1, got {arms}")
    _check_size(arms + 1, arms)
    return _unit_graph(arms + 1, np.zeros(arms, dtype=np.intp), np.arange(1, arms + 1))


def _square_center() -> WeightedGraph:
    # Corners 0..3 form the 4-cycle, node 4 sits in the center.
    return _unit_graph(5, np.array([0, 1, 2, 0, 0, 1, 2, 3]), np.array([1, 2, 3, 3, 4, 4, 4, 4]))


def _lattice(width: int, height: int) -> WeightedGraph:
    # Periodic 2-d square lattice; node (x, y) has index y*width + x.
    # Sizes below 3 would produce doubled bonds, which the edge list cannot
    # represent, so they are rejected.
    if width < 3 or height < 3:
        raise GraphSpecError(f"lattice:WxH requires W, H >= 3, got {width}x{height}")
    n = width * height
    _check_size(n, 2 * n)
    nodes = np.arange(n)
    x, y = nodes % width, nodes // width
    tails = np.concatenate((nodes, nodes))
    heads = np.concatenate((y * width + (x + 1) % width, ((y + 1) % height) * width + x))
    # Sorted by (low, high) end; W, H >= 3 repeat no pair, so none is dropped.
    key = np.sort(np.minimum(tails, heads) * n + np.maximum(tails, heads))
    return _unit_graph(n, key // n, key % n)


GENERATOR_NAMES = ("ring", "complete", "hypercube", "tree", "cross", "square_center", "lattice")


def _parse_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphSpecError(f"invalid integer parameter in generator spec {spec!r}") from None


def build_named(spec: str) -> WeightedGraph:
    """Build one of the named example graphs from a ``name:params`` string.

    Supported generators:

    * ``ring:N`` -- cycle of N >= 3 nodes, 0..N-1 in ring order.
    * ``complete:N`` -- complete graph on N >= 2 nodes.
    * ``hypercube:d`` -- d-dimensional hypercube (1 <= d <= 10); node v is the
      bit pattern of its coordinates, edges join words at Hamming distance 1.
    * ``tree:g`` -- full binary tree with g generations below the root,
      breadth-first numbering (root 0, children of v are 2v+1 and 2v+2).
    * ``cross:m`` -- star with center 0 joined to arms 1..m.
    * ``square_center`` -- 4-cycle on corners 0..3 plus center node 4 joined
      to every corner.
    * ``lattice:WxH`` -- periodic 2-d square lattice, W, H >= 3; node (x, y)
      has index y*W + x.

    All generators return unit edge weights and zero on-site energies.
    """
    name, _, arg = spec.partition(":")
    name = name.strip()
    arg = arg.strip()
    if name == "ring":
        return _ring(_parse_int(arg, spec))
    if name == "complete":
        return _complete(_parse_int(arg, spec))
    if name == "hypercube":
        return _hypercube(_parse_int(arg, spec))
    if name == "tree":
        return _tree(_parse_int(arg, spec))
    if name == "cross":
        return _cross(_parse_int(arg, spec))
    if name == "square_center":
        if arg:
            raise GraphSpecError("square_center takes no parameter")
        return _square_center()
    if name == "lattice":
        w, sep, h = arg.partition("x")
        if not sep:
            raise GraphSpecError(f"lattice spec must look like lattice:WxH, got {spec!r}")
        return _lattice(_parse_int(w, spec), _parse_int(h, spec))
    raise GraphSpecError(f"unknown generator {name!r}; known: {', '.join(GENERATOR_NAMES)}")


def hamiltonian(graph: WeightedGraph, gamma: float) -> np.ndarray:
    """Walk Hamiltonian of a graph: ``-gamma * w`` per edge, on-site on the diagonal.

    The result is a real symmetric ``node_count x node_count`` matrix: the
    edge arrays scatter into both triangles, the on-site energies onto the
    diagonal.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    h = np.zeros((graph.node_count, graph.node_count))
    h[graph.tails, graph.heads] = h[graph.heads, graph.tails] = -gamma * graph.weights
    np.fill_diagonal(h, graph.onsite)
    return h


def graph_document(graph: WeightedGraph) -> dict:
    """A graph in the JSON graph format, as the plain dict that :func:`save_graph` encodes."""
    labels = {} if graph.labels is None else {"labels": list(graph.labels)}
    edges = list(map(list, zip(graph.tails.tolist(), graph.heads.tolist(), graph.weights.tolist())))
    return {"nodes": graph.node_count, "edges": edges, "onsite": graph.onsite.tolist(), **labels}


def save_graph(graph: WeightedGraph) -> bytes:
    """Serialize a graph to the JSON graph format (UTF-8 bytes).

    Doubles are written in their shortest round-tripping form, so
    ``load_graph(save_graph(g)) == g`` holds bit-exactly.
    """
    return (json.dumps(graph_document(graph), indent=2) + "\n").encode("utf-8")


def _edge_columns(entries: list) -> tuple[tuple, tuple, tuple] | None:
    """The columns ``i``, ``j`` and ``w`` of a list of entries ``[i, j]`` or ``[i, j, w]``,
    with ``w`` 1.0 where it is left out; None unless every index is an int and every weight a number.

    The scans run in C, one ``map`` each; the invariants (range, self-loops,
    finite weights, duplicates) are left to ``WeightedGraph``'s own checks.
    """
    if not entries:
        return (), (), ()
    if not set(map(type, entries)) <= {list}:
        return None
    lengths = set(map(len, entries))
    if not lengths <= {2, 3}:
        return None
    if 2 in lengths:
        # [i, j] + [1.0] holds the default weight where [i, j, w] + [1.0] holds w.
        entries = map(itemgetter(0, 1, 2), map(operator.add, entries, repeat([1.0])))
    tails, heads, weights = zip(*entries)
    if not set(map(type, tails)) | set(map(type, heads)) <= {int} or not set(map(type, weights)) <= {int, float}:
        return None
    return tails, heads, weights


def _raise_edge_format_error(entries: list) -> None:
    """Raise the :class:`GraphFormatError` of the first malformed entry."""
    for k, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise GraphFormatError(f"edges[{k}]: expected [i, j] or [i, j, w], got {entry!r}")
        i, j = entry[0], entry[1]
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise GraphFormatError(f"edges[{k}]: node indices must be integers, got {entry!r}")
        w = entry[2] if len(entry) == 3 else 1.0
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise GraphFormatError(f"edges[{k}]: weight must be a number, got {w!r}")


def load_graph(data: bytes | str) -> WeightedGraph:
    """Parse the JSON graph format.

    Accepted document shape::

        {"nodes": int,
         "edges": [[i, j], [i, j, w], ...],   # w defaults to 1
         "onsite": [e0, e1, ...],             # optional, defaults to 0
         "labels": ["a", ...]}                # optional

    Raises :class:`GraphFormatError` with field context on malformed input,
    bytes that are not UTF-8 included, :class:`GraphInvariantError` on
    self-loops or duplicate edges, and :class:`GraphSizeError` on more than
    ``MAX_NODES`` nodes or ``MAX_EDGES`` edges, before any array is built.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"top-level value must be an object, got {type(doc).__name__}")
    if "nodes" not in doc:
        raise GraphFormatError("missing required field 'nodes'")
    nodes = doc["nodes"]
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
        raise GraphFormatError(f"field 'nodes' must be a positive integer, got {nodes!r}")

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("field 'edges' must be a list")
    _check_size(nodes, len(raw_edges))
    columns = _edge_columns(raw_edges)
    if columns is None:
        _raise_edge_format_error(raw_edges)

    raw_onsite = doc.get("onsite", [0.0] * nodes)
    if not isinstance(raw_onsite, list):
        raise GraphFormatError("field 'onsite' must be a list")
    if not set(map(type, raw_onsite)) <= {int, float}:
        raise GraphFormatError("field 'onsite' must contain numbers only")

    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or not set(map(type, labels)) <= {str}):
        raise GraphFormatError("field 'labels' must be a list of strings")

    return WeightedGraph(nodes, *columns, raw_onsite, labels)
