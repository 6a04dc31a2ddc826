"""Weighted graphs, named graph generators, Hamiltonian assembly and JSON I/O.

A graph walk Hamiltonian is built as ``H[i, j] = -gamma * w`` for every
undirected edge ``(i, j, w)`` and ``H[i, i] = onsite[i]``.  All generators
emit unit weights, zero on-site energies and a documented node ordering.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import GraphFormatError, GraphInvariantError, GraphSpecError

__all__ = [
    "WeightedGraph",
    "build_named",
    "hamiltonian",
    "load_graph",
    "save_graph",
    "graph_document",
    "GENERATOR_NAMES",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with per-node on-site energies.

    Edges are stored as ``(i, j, w)`` with ``i < j``; an edge couples both
    directions with the same weight.  Instances are immutable and safe to
    share between threads.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    onsite: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = _index(self.node_count, "node_count")
        if n < 1:
            raise GraphInvariantError(f"node_count must be positive, got {n}")
        object.__setattr__(self, "node_count", n)
        normalized = []
        seen: set[tuple[int, int]] = set()
        for k, edge in enumerate(self.edges):
            if len(edge) != 3:
                raise GraphInvariantError(f"edges[{k}]: expected (i, j, w), got {edge!r}")
            i, j, w = edge
            if type(i) is not int or type(j) is not int:
                i, j = _index(i, f"edges[{k}]: node index"), _index(j, f"edges[{k}]: node index")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphInvariantError(f"edges[{k}]: node index out of range for {n} nodes: ({i}, {j})")
            if i == j:
                raise GraphInvariantError(f"edges[{k}]: self-loop ({i}, {j}) is not allowed")
            w = float(w)
            if not math.isfinite(w):
                raise GraphInvariantError(f"edges[{k}]: weight must be finite, got {w}")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise GraphInvariantError(f"edges[{k}]: duplicate edge {pair}")
            seen.add(pair)
            normalized.append((*pair, w))
        object.__setattr__(self, "edges", tuple(normalized))
        if len(self.onsite) != self.node_count:
            raise GraphInvariantError(
                f"onsite has length {len(self.onsite)}, expected {self.node_count}"
            )
        onsite = tuple(float(e) for e in self.onsite)
        if any(not math.isfinite(e) for e in onsite):
            raise GraphInvariantError("onsite energies must be finite")
        object.__setattr__(self, "onsite", onsite)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.node_count:
                raise GraphInvariantError(
                    f"labels has length {len(labels)}, expected {self.node_count}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric weight matrix A with A[i, j] = w for each edge."""
        a = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.node_count
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)


def _index(value, what: str) -> int:
    """``value`` as a Python int, if it is an integer and no bool; else :class:`GraphInvariantError`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GraphInvariantError(f"{what} must be an integer, got {value!r}")


def _unit_graph(node_count: int, pairs: list[tuple[int, int]]) -> WeightedGraph:
    return WeightedGraph(
        node_count=node_count,
        edges=tuple((i, j, 1.0) for i, j in pairs),
        onsite=(0.0,) * node_count,
    )


def _ring(n: int) -> WeightedGraph:
    if n < 3:
        raise GraphSpecError(f"ring:N requires N >= 3, got {n}")
    return _unit_graph(n, [(r, (r + 1) % n) for r in range(n)])


def _complete(n: int) -> WeightedGraph:
    if n < 2:
        raise GraphSpecError(f"complete:N requires N >= 2, got {n}")
    return _unit_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _hypercube(d: int) -> WeightedGraph:
    if not 1 <= d <= 10:
        raise GraphSpecError(f"hypercube:d requires 1 <= d <= 10, got {d}")
    n = 1 << d
    pairs = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return _unit_graph(n, pairs)


def _tree(generations: int) -> WeightedGraph:
    # Breadth-first ordering: root 0, then each generation left to right;
    # children of node v are 2v+1 and 2v+2.
    if generations < 1:
        raise GraphSpecError(f"tree:g requires g >= 1, got {generations}")
    n = (1 << (generations + 1)) - 1
    internal = (1 << generations) - 1
    pairs = [(v, c) for v in range(internal) for c in (2 * v + 1, 2 * v + 2)]
    return _unit_graph(n, pairs)


def _cross(arms: int) -> WeightedGraph:
    if arms < 1:
        raise GraphSpecError(f"cross:m requires m >= 1, got {arms}")
    return _unit_graph(arms + 1, [(0, k) for k in range(1, arms + 1)])


def _square_center() -> WeightedGraph:
    # Corners 0..3 form the 4-cycle, node 4 sits in the center.
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    return _unit_graph(5, pairs)


def _lattice(width: int, height: int) -> WeightedGraph:
    # Periodic 2-d square lattice; node (x, y) has index y*width + x.
    # Sizes below 3 would produce doubled bonds, which the edge list cannot
    # represent, so they are rejected.
    if width < 3 or height < 3:
        raise GraphSpecError(f"lattice:WxH requires W, H >= 3, got {width}x{height}")
    pairs = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            pairs.append((v, y * width + (x + 1) % width))
            pairs.append((v, ((y + 1) % height) * width + x))
    dedup = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    return _unit_graph(width * height, dedup)


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

    The result is a real symmetric ``node_count x node_count`` matrix.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    h = np.zeros((graph.node_count, graph.node_count))
    for i, j, w in graph.edges:
        h[i, j] = -gamma * w
        h[j, i] = -gamma * w
    for i, e in enumerate(graph.onsite):
        h[i, i] = e
    return h


def graph_document(graph: WeightedGraph) -> dict:
    """A graph in the JSON graph format, as the plain dict that :func:`save_graph` encodes."""
    labels = {} if graph.labels is None else {"labels": list(graph.labels)}
    return {"nodes": graph.node_count, "edges": [[i, j, w] for i, j, w in graph.edges],
            "onsite": list(graph.onsite), **labels}


def save_graph(graph: WeightedGraph) -> bytes:
    """Serialize a graph to the JSON graph format (UTF-8 bytes).

    Doubles are written in their shortest round-tripping form, so
    ``load_graph(save_graph(g)) == g`` holds bit-exactly.
    """
    return (json.dumps(graph_document(graph), indent=2) + "\n").encode("utf-8")


def _plain_edge_lists(entries: list) -> bool:
    """Whether every entry is a list ``[i, j]`` or ``[i, j, w]`` of int indices and a number weight.

    The scans run in C, one ``map`` each; the invariants (range, self-loops,
    finite weights, duplicates) are left to ``WeightedGraph``'s own pass.
    """
    if not set(map(type, entries)) <= {list} or not set(map(len, entries)) <= {2, 3}:
        return False
    indices = chain(map(itemgetter(0), entries), map(itemgetter(1), entries))
    return set(map(type, chain.from_iterable(entries))) <= {int, float} and set(map(type, indices)) <= {int}


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
    bytes that are not UTF-8 included, and :class:`GraphInvariantError` on
    self-loops or duplicate edges.
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
    if not _plain_edge_lists(raw_edges):
        _raise_edge_format_error(raw_edges)
    if 2 in map(len, raw_edges):
        raw_edges = [entry if len(entry) == 3 else [*entry, 1.0] for entry in raw_edges]

    raw_onsite = doc.get("onsite", [0.0] * nodes)
    if not isinstance(raw_onsite, list):
        raise GraphFormatError("field 'onsite' must be a list")
    if not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in raw_onsite):
        raise GraphFormatError("field 'onsite' must contain numbers only")

    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise GraphFormatError("field 'labels' must be a list of strings")
        labels = tuple(labels)

    return WeightedGraph(
        node_count=nodes,
        edges=raw_edges,
        onsite=tuple(float(e) for e in raw_onsite),
        labels=labels,
    )
