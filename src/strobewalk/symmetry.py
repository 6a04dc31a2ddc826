"""Graph symmetries and what they imply for the detection probability.

The permutations that preserve the weighted adjacency structure and the
on-site energies commute with the walk Hamiltonian.  The subgroup that
additionally fixes the detection state (up to a unit phase factor) maps
initial states onto partners with identical detection statistics.

Both groups come from individualization-refinement searches on colored
graphs (McKay and Piperno, "Practical graph isomorphism II", J. Symb.
Comput. 60, 2014).  A search fixes base points one at a time, keeps one
verified generator per new image of each base point, and returns the
generators, one integer array with a row of node images each, with the
exact order: the product of the basic orbit lengths along the base.  No
element list is built.  A stabilizer keeps the phase of each generator
next to that array, and labels each node with its orbit, numbered by least
member; orbit sizes, the quotient classes (``node_orbits``, one tuple of
members per orbit) and, with trivial phases, the projector and the
symmetric dimension (the orbit count) all read that one labelling.  With
phases the symmetric subspace is the joint phase eigenspace of the
generator matrices.

Two shortcuts cut the work of a search without changing its result:

* Individualizing node ``v`` also splits every cell by hop distance from
  ``v`` before the refinement rounds.  This is exact: in an equitable
  coloring with ``{v}`` as a cell, the nodes at each distance from ``v``
  form a union of cells, so the coarsest equitable refinement is the same,
  and only the rounds needed to reach it drop (a ring needs one, not half
  its length).
* Before walking the search tree for a candidate image ``v`` of base point
  ``b``, the search tries the transposition ``(b v)``.  It fixes the base
  points before ``b``, so when it preserves the structure and the input
  coloring it is a generator for that level, found without a refinement.

For a detector localized on node ``d`` one search gives both groups: with
``d`` first in the base, the generators found below the first level
generate the stabilizer of ``d``, and their basic orbit lengths multiply to
its order (orbit-stabilizer: ``|G| = |orbit(d)| * |G_d|``).  The group keeps
that part of its chain, and :func:`stabilizer` reuses it.  A phased
detector, or a node other than the base point, takes a search of its own.

From the stabilizer follow, without any spectral information about the
initial state:

* the dimension ``orbit_rank`` of the span of a state's symmetry orbit,
* the projector onto the symmetric subspace and the symmetric component
  of any state,
* an upper bound ``<psi|P|psi>`` on the total detection probability
  (``1/orbit_rank`` for localized states),
* an explicit orthonormal set of never-detected states built from any
  orbit of equivalent basis states,
* a saturation test telling when the bound is an equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .detection import DARK_OVERLAP_TOL, _DetectorProjection
from .errors import AsymmetricStateError, GroupSearchError, StateError, StrobewalkError
from .graphs import WeightedGraph, _components
from .spectral import SpectralDecomposition
from .states import as_state, localized_node

__all__ = [
    "SymmetryGroup",
    "StabilizerGroup",
    "automorphisms",
    "stabilizer",
    "orbit_rank",
    "symmetry_projector",
    "symmetric_part",
    "equivalent_dark_basis",
    "upper_bound",
    "saturation_check",
    "node_orbits",
]

#: ||S psi_d - p psi_d|| below this admits S into the stabilizer.
STABILIZER_TOL = 1e-10
#: Relative cutoff for the dimension of an orbit span.
RANK_TOL = 1e-10
#: Singular values below this span the joint phase eigenspace of the generators.
NULL_TOL = 1e-8

DEFAULT_NODE_CAP = 64


def _permutation_rows(images, n: int) -> np.ndarray:
    """``images`` as a read-only ``(g, n)`` intp array; row ``i`` maps node ``r`` to ``images[i][r]``.

    Raises ValueError unless every row is a permutation of 0..n-1: one test
    compares the bytes of the sorted rows with those of 0..n-1, once a row.
    """
    rows = np.array(images, dtype=np.intp).reshape(len(images), n)
    if np.sort(rows).tobytes() != np.arange(n).tobytes() * len(rows):
        bad = next(row for row in rows.tolist() if sorted(row) != list(range(n)))
        raise ValueError(f"not a permutation of 0..{n - 1}: {bad}")
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Automorphism group of a weighted graph, kept as generators and order.

    ``generators`` is a read-only ``(g, n)`` intp array: generator ``i``
    maps node ``r`` to ``generators[i, r]`` and acts on states as ``(S
    psi)[generators[i, r]] = psi[r]``.  Every generator, viewed as a
    permutation matrix, commutes with the walk Hamiltonian of ``graph`` (for
    any coupling constant), since it preserves weights and on-site energies;
    so does every element.

    A group searched with a base point ``d`` also keeps ``_fixed = (d,
    count, order)``: its first ``count`` generators generate the stabilizer
    of node ``d``, of that order.
    """

    graph: WeightedGraph
    generators: np.ndarray
    order: int
    _fixed: tuple[int, int, int] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", _permutation_rows(self.generators, self.dim))

    @property
    def dim(self) -> int:
        return self.graph.node_count


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """Symmetries fixing the detection state up to a unit phase.

    Kept as generators: ``images``, a read-only ``(g, dim)`` intp array with
    one generator a row, as in :class:`SymmetryGroup`, and ``phases``, a
    read-only ``(g,)`` complex array with the phase p = <psi_d|S|psi_d> of
    each, so that ``S psi_d = p psi_d``.  For a detection state localized on
    a node every phase is 1.  Orbits and the projector are computed once, on
    first use.
    """

    images: np.ndarray
    phases: np.ndarray
    order: int
    dim: int

    def __post_init__(self):
        images = _permutation_rows(self.images, self.dim)
        phases = np.array(self.phases, dtype=complex).reshape(len(images))
        phases.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "phases", phases)

    @cached_property
    def has_trivial_phases(self) -> bool:
        return bool((np.abs(self.phases - 1.0) <= 1e-9).all())

    @cached_property
    def _orbit_labels(self) -> np.ndarray:
        """Orbit of each node, numbered by least member: the connected components
        of the pairs that join each node to its image under each generator."""
        return _components(self.dim, np.tile(np.arange(self.dim), len(self.images)), self.images.ravel())

    @cached_property
    def _orbit_sizes(self) -> np.ndarray:
        labels = self._orbit_labels
        return np.bincount(labels)[labels]

    @cached_property
    def _subspace(self) -> tuple[np.ndarray, int]:
        """The read-only projector onto the symmetric subspace and the subspace's dimension.

        With trivial phases the projector has ``1/|orbit|`` within each orbit;
        otherwise the subspace is the null space of the stacked ``S - p I``,
        whose permutation matrices ``S[img[r], r] = 1`` take one scatter.
        """
        if self.has_trivial_phases:
            labels = self._orbit_labels
            p = (np.equal.outer(labels, labels) / self._orbit_sizes).astype(complex)
            dim = self.symmetric_dim
        else:
            g, n = self.images.shape
            matrices = np.zeros((g, n, n))
            matrices[np.arange(g)[:, None], self.images, np.arange(n)] = 1.0
            stacked = (matrices - self.phases[:, None, None] * np.eye(n)).reshape(g * n, n)
            _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
            span = vh[svals < NULL_TOL].conj().T
            p = span @ span.conj().T
            p = (p + p.conj().T) / 2.0
            dim = span.shape[1]
        p.flags.writeable = False
        return p, dim

    @property
    def symmetric_dim(self) -> int:
        """Dimension of the symmetric subspace: with trivial phases the orbit count, no projector built."""
        if self.has_trivial_phases:
            return int(self._orbit_labels.max()) + 1
        return self._subspace[1]


def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """Colors 0..k-1 numbering the distinct keys in sorted order."""
    return np.unique(keys, return_inverse=True)[1].astype(np.intp)


@dataclass
class _Path:
    """First path of a search tree: the base and the coloring at each level.

    ``colors[j]`` and ``certs[j]`` hold the refined coloring after ``j``
    individualizations; ``base[j]`` is taken from the cell of color
    ``cells[j]`` of ``colors[j]``.
    """

    colors: list[np.ndarray]
    certs: list[bytes]
    cells: list[int] = field(default_factory=list)
    base: list[int] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.base)


def _orbit(point: int, generators: Sequence[list[int]]) -> set[int]:
    seen = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for g in generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _salts(count: int, bits: int) -> np.ndarray:
    """``count`` fixed pseudo-random odd integers below ``2**bits`` (splitmix64), as floats."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(64 - bits)) | np.uint64(1)).astype(float)


class _Search:
    """Individualization-refinement search on one weighted graph.

    Colorings are arrays of colors 0..k-1.  A refinement round splits each
    cell by a salted sum over a node's edges, each edge adding the salt of
    its (weight, color of the other end) pair, and numbers the new cells by
    sorted (old color, sum) keys, never by first appearance.  So it commutes
    with every automorphism that preserves the input coloring, and two
    colorings related by such an automorphism yield the same certificate.
    A round is one ``np.bincount`` over the edges read both ways: O(n + m).

    Individualizing a node ``v`` is one round keyed by the hop distance from
    ``v`` (``v`` alone has distance 0), then the salted rounds.  Distances
    are carried along by every automorphism that maps ``v`` to ``v'``, so
    the round commutes with them too; and the equitable refinement is
    unchanged, since an equitable coloring with ``{v}`` as a cell already
    separates the nodes by distance from ``v``.  Distance rows come from one
    breadth-first search per individualized node, cached on the search.

    :meth:`chain` tries the transposition of the base point and a candidate
    image before it walks the tree for that image: the transposition fixes
    the earlier base points, so if it preserves the structure and the input
    coloring it is a valid generator for the level.
    """

    def __init__(self, graph: WeightedGraph):
        self.n = graph.node_count
        self.tails, self.heads, self.edge_weights = graph.tails, graph.heads, graph.weights
        self.onsite = graph.onsite
        self._distances: dict[int, np.ndarray] = {}

    # The arcs and the weight matrix are built on first use: a discrete input coloring needs neither.

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each edge both ways as ``(starts, ends, ranks)``, ranking its weight among the
        distinct ones, and ``salt[rank, color]``: small enough that every neighbor sum is
        an exact float64 integer, so no sum depends on the order of its terms."""
        weights, rank = np.unique(self.edge_weights, return_inverse=True)
        salt = _salts(len(weights) * self.n, 52 - self.n.bit_length()).reshape(-1, self.n)
        starts = np.concatenate((self.tails, self.heads))
        ends = np.concatenate((self.heads, self.tails))
        return starts, ends, np.tile(rank, 2), salt

    def neighbor_sums(self, colors: np.ndarray) -> np.ndarray:
        """Per node, the sum over its arcs of the salt of (weight rank, color of the end)."""
        starts, ends, ranks, salt = self.arcs
        return np.bincount(starts, salt[ranks, colors[ends]], minlength=self.n)

    @cached_property
    def weight(self) -> np.ndarray:
        """Edge weights by both ends; NaN marks a missing edge, so it never equals a weight, not even 0."""
        weight = np.full((self.n, self.n), np.nan)
        weight[self.tails, self.heads] = weight[self.heads, self.tails] = self.edge_weights
        return weight

    def refine(self, colors: np.ndarray, keys: np.ndarray | None = None) -> tuple[np.ndarray, bytes]:
        """Equitable refinement of ``colors`` and a certificate of its rounds.

        ``keys``, if given, split the cells before the first salted round, in
        a round of their own.
        """
        n = self.n
        k = int(colors.max()) + 1
        parts = [np.bincount(colors, minlength=k).tobytes()]
        sums = keys
        while k < n:
            salted = sums is None
            if salted:
                sums = self.neighbor_sums(colors)
            order = np.lexsort((sums, colors))
            sorted_colors, sorted_sums = colors[order], sums[order]
            step = np.empty(n, dtype=bool)
            step[0] = True
            np.not_equal(sorted_colors[1:], sorted_colors[:-1], out=step[1:])
            step[1:] |= sorted_sums[1:] != sorted_sums[:-1]
            parts.append(sorted_sums.tobytes())
            new_k = int(np.count_nonzero(step))
            if new_k == k and salted:
                break
            colors = np.empty(n, dtype=np.intp)
            colors[order] = np.cumsum(step) - 1
            k = new_k
            sums = None
        return colors, b"".join(parts)

    @cached_property
    def neighbors(self) -> list[set[int]]:
        """Neighbor set of each node, built on the first individualization."""
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in zip(self.tails.tolist(), self.heads.tolist()):
            nbrs[i].add(j)
            nbrs[j].add(i)
        return nbrs

    def distances(self, v: int) -> np.ndarray:
        """Hop distance of every node from ``v``, ``n`` for unreachable ones; cached per node.

        One breadth-first search, a level at a time.
        """
        dist = self._distances.get(v)
        if dist is None:
            nbrs = self.neighbors
            hops = [self.n] * self.n
            hops[v] = 0
            seen, frontier, level = {v}, {v}, 0
            while frontier:
                level += 1
                frontier = set().union(*[nbrs[u] for u in frontier]) - seen
                seen |= frontier
                for u in frontier:
                    hops[u] = level
            dist = self._distances[v] = np.array(hops, dtype=np.intp)
        return dist

    def individualize(self, colors: np.ndarray, v: int) -> tuple[np.ndarray, bytes]:
        """:meth:`refine` after splitting every cell by hop distance from ``v``.

        ``v`` alone has distance 0, so it leaves its cell, ahead of the rest.
        """
        return self.refine(colors, self.distances(v))

    def descend(self, colors: np.ndarray, cert: bytes, first: int | None = None) -> _Path:
        """Individualize the least node of the smallest non-singleton cell until discrete.

        With ``first`` given and not yet in a singleton cell, that node is
        individualized first, so it becomes ``base[0]``.
        """
        path = _Path([colors], [cert])
        while int(colors.max()) + 1 < self.n:
            sizes = np.bincount(colors)
            if first is not None and sizes[colors[first]] > 1:
                cell, b = int(colors[first]), first
            else:
                sizes[sizes == 1] = self.n + 1
                cell = int(np.argmin(sizes))
                b = int(np.flatnonzero(colors == cell)[0])
            first = None
            colors, cert = self.individualize(colors, b)
            path.colors.append(colors)
            path.certs.append(cert)
            path.cells.append(cell)
            path.base.append(b)
        return path

    def preserves_structure(self, img: np.ndarray) -> bool:
        """Whether node ``r -> img[r]`` keeps on-site energies and weighted edges exactly.

        A bijection that maps every edge onto an edge of the same weight maps
        the edge set onto itself.
        """
        return (np.array_equal(self.onsite[img], self.onsite)
                and np.array_equal(self.weight[img[self.tails], img[self.heads]], self.edge_weights))

    def swap(self, a: int, b: int, colors0: np.ndarray) -> np.ndarray | None:
        """The transposition of nodes ``a`` and ``b`` if it preserves ``colors0`` and the structure."""
        img = np.arange(self.n)
        img[a], img[b] = b, a
        if colors0[a] == colors0[b] and self.preserves_structure(img):
            return img
        return None

    def match(self, path: _Path, level: int, colors: np.ndarray,
              source: np.ndarray, target: np.ndarray) -> np.ndarray | None:
        """A map from the path's leaf onto a leaf below ``colors``, or None.

        ``colors`` must carry the certificate of ``path.colors[level]``.  The
        map must carry coloring ``source`` onto ``target`` and preserve the
        structure.  Every node of each target cell is tried, so a map is
        found whenever one exists.
        """
        if level == path.depth:
            inverse = np.empty(self.n, dtype=np.intp)
            inverse[colors] = np.arange(self.n)
            img = inverse[path.colors[level]]
            if np.array_equal(target[img], source) and self.preserves_structure(img):
                return img
            return None
        for t in np.flatnonzero(colors == path.cells[level]).tolist():
            img = self.extend(path, level, colors, t, source, target)
            if img is not None:
                return img
        return None

    def extend(self, path: _Path, level: int, colors: np.ndarray, v: int,
               source: np.ndarray, target: np.ndarray) -> np.ndarray | None:
        """:meth:`match` below ``colors`` with ``v`` in place of ``path.base[level]``."""
        child, cert = self.individualize(colors, v)
        if cert != path.certs[level + 1]:
            return None
        return self.match(path, level + 1, child, source, target)

    def chain(self, colors0: np.ndarray, point: int | None = None
              ) -> tuple[np.ndarray, int, tuple[int, int]]:
        """Generators and order of the automorphisms that preserve ``colors0``.

        Levels are closed from the deepest up.  At level j the generators
        found so far generate the pointwise stabilizer of the base points
        below j; every node of the target cell outside the orbit of the
        base point under them is tried once, first as a transposition with
        the base point, then by walking the tree.  Only a failed walk rules
        out the node's whole orbit.

        The generators come back as one ``(g, n)`` array, a row each; the
        orbits are walked on their rows as lists.

        ``point`` goes first in the base.  The third result is ``(count,
        order)`` of the stabilizer of ``point``: the generators found below
        level 0, or all of them when the refined ``colors0`` already has
        ``point`` in a singleton cell, so that every automorphism fixes it.
        """
        path = self.descend(*self.refine(colors0), first=point)
        generators: list[list[int]] = []
        order = 1
        fixed = None
        for level in reversed(range(path.depth)):
            if level == 0 and path.base[0] == point:
                fixed = (len(generators), order)
            colors = path.colors[level]
            orbit = _orbit(path.base[level], generators)
            ruled_out: set[int] = set()
            for v in np.flatnonzero(colors == path.cells[level]).tolist():
                if v in orbit or v in ruled_out:
                    continue
                img = self.swap(path.base[level], v, colors0)
                if img is None:
                    img = self.extend(path, level, colors, v, colors0, colors0)
                if img is None:
                    ruled_out |= _orbit(v, generators)
                else:
                    generators.append(img.tolist())
                    orbit = _orbit(path.base[level], generators)
            order *= len(orbit)
        images = np.array(generators, dtype=np.intp).reshape(len(generators), self.n)
        return images, order, fixed or (len(generators), order)

    def isomorphism(self, source: np.ndarray, target: np.ndarray) -> np.ndarray | None:
        """An automorphism of the graph carrying coloring ``source`` onto ``target``.

        Returns ``img`` with ``target[img] == source``, or None if there is none.
        """
        src, src_cert = self.refine(source)
        dst, dst_cert = self.refine(target)
        if src_cert != dst_cert:
            return None
        return self.match(self.descend(src, src_cert), 0, dst, source, target)


def automorphisms(graph: WeightedGraph, *, node_cap: int = DEFAULT_NODE_CAP,
                  base_point: int | None = None) -> SymmetryGroup:
    """Full automorphism group of a weighted graph with on-site energies.

    An automorphism must preserve edge weights and on-site energies
    exactly.  The group comes back as generators and its exact order; see
    the module docstring for the search.

    With ``base_point`` the search puts that node first in its base, and
    the group keeps the part of its chain that fixes the node, so that
    :func:`stabilizer` of a detector localized there needs no second
    search.  The group and its order do not depend on the base.

    Raises :class:`GroupSearchError` when the graph exceeds ``node_cap``
    nodes.
    """
    n = graph.node_count
    if n > node_cap:
        raise GroupSearchError(f"graph has {n} nodes, above the cap of {node_cap}")
    if base_point is not None and not 0 <= base_point < n:
        raise StateError(f"base point {base_point} out of range for {n} nodes")
    search = _Search(graph)
    generators, order, (count, fixed_order) = search.chain(_dense_ranks(search.onsite), base_point)
    return SymmetryGroup(
        graph=graph,
        generators=generators,
        order=order,
        _fixed=None if base_point is None else (base_point, count, fixed_order),
    )


def _amplitude_classes(values: np.ndarray, representatives: np.ndarray, tol: float) -> np.ndarray | None:
    """Index of the representative within ``tol`` of each value, or None if one has none."""
    dist = np.abs(values[:, None] - representatives[None, :])
    ids = np.argmin(dist, axis=1)
    if np.any(dist[np.arange(len(values)), ids] > tol):
        return None
    return ids


def _distinct_amplitudes(values: np.ndarray, tol: float) -> np.ndarray:
    """Each value farther than ``tol`` from every earlier representative, in order.

    One pass per representative: the first value not yet within ``tol`` of
    one opens the next.
    """
    reps = []
    open_ = np.ones(len(values), dtype=bool)
    while open_.any():
        z = values[int(np.argmax(open_))]
        reps.append(z)
        open_ &= np.abs(values - z) > tol
    return np.array(reps)


def _fixing_phases(images: np.ndarray, psi_d: np.ndarray, tol: float) -> np.ndarray:
    """Unit phase ``p`` of each stacked image with ``S psi_d = p psi_d``.

    ``(S psi)[img[r]] = psi[r]``, so ``S psi_d = p psi_d`` reads ``psi_d =
    p psi_d[img]``: one gather checks every generator.  Raises
    :class:`StrobewalkError` for the first image that does not fix
    ``psi_d`` within ``tol``.
    """
    moved = psi_d[images]
    phases = moved.conj() @ psi_d
    moduli = np.abs(phases)
    misfit = psi_d - phases[:, None] * moved
    residuals = np.sqrt(np.add.reduce((misfit.conj() * misfit).real, axis=1))  # the row norms
    bad = (np.abs(moduli - 1.0) >= tol) | (residuals >= tol)
    if bad.any():
        raise StrobewalkError(
            f"stabilizer generator {tuple(images[bad.argmax()].tolist())} does not fix the detection state")
    return phases / moduli


def stabilizer(group: SymmetryGroup, detect_state: np.ndarray) -> StabilizerGroup:
    """Subgroup whose elements fix the detection state up to a unit phase.

    Membership requires ``||S psi_d - p psi_d|| < STABILIZER_TOL`` with
    ``p = <psi_d|S|psi_d>`` of unit modulus; ``p`` is stored next to each
    generator.

    For a detector localized on the base point of ``group`` (see
    :func:`automorphisms`) the stabilizer is the part of the group's chain
    that fixes that node, and no search runs.  Otherwise the search runs on
    the graph colored by the detection amplitudes, which for a localized
    detector just individualizes its node.  The phase-1 kernel comes from a
    chain search on that coloring.  Each further phase ``p`` needs one coset
    representative, an automorphism carrying the coloring of ``psi_d / p``
    onto that of ``psi_d``.  The order is the kernel order times the number
    of phases found.  Either way each generator is checked to fix the
    detection state.
    """
    psi_d = as_state(detect_state, group.dim)
    if group._fixed is not None and group._fixed[0] == localized_node(psi_d, STABILIZER_TOL / 2):
        # Every other amplitude is within STABILIZER_TOL / 2 of 0, so the
        # amplitude coloring individualizes the base point and nothing else.
        _, count, order = group._fixed
        images = group.generators[:count]
    else:
        reps = _distinct_amplitudes(psi_d, STABILIZER_TOL)
        images, order = _searched_stabilizer(group.graph, psi_d, reps, STABILIZER_TOL)
    phases = _fixing_phases(images, psi_d, STABILIZER_TOL)
    return StabilizerGroup(images=images, phases=phases, order=order, dim=group.dim)


def _searched_stabilizer(graph: WeightedGraph, psi_d: np.ndarray, reps: np.ndarray,
                         tol: float) -> tuple[np.ndarray, int]:
    """Generator images and order of the stabilizer of ``psi_d``, by a search of its own.

    ``reps`` are the distinct amplitudes of ``psi_d``; see :func:`stabilizer`.
    """
    search = _Search(graph)
    onsite = _dense_ranks(search.onsite)

    def coloring(ids: np.ndarray) -> np.ndarray:
        return onsite * len(reps) + ids

    target = coloring(_amplitude_classes(psi_d, reps, tol))
    kernel, kernel_order, _ = search.chain(_dense_ranks(target))
    cosets = []

    anchor = psi_d[int(np.argmax(np.abs(psi_d)))]
    phases = [1.0 + 0j]
    for z in psi_d[np.abs(np.abs(psi_d) - abs(anchor)) <= tol]:
        p = anchor / z
        p /= abs(p)
        if any(abs(p - q) <= tol for q in phases):
            continue
        ids = _amplitude_classes(psi_d / p, reps, tol)
        if ids is None:
            continue
        source = coloring(ids)
        if not np.array_equal(np.sort(source), np.sort(target)):
            continue
        img = search.isomorphism(_dense_ranks(source), _dense_ranks(target))
        if img is not None:
            phases.append(p)
            cosets.append(img)
    return np.vstack([kernel, *cosets]), kernel_order * len(phases)


def _invariant_span_dim(stab: StabilizerGroup, psi: np.ndarray, rank_tol: float) -> int:
    """Dimension of the smallest generator-invariant subspace containing ``psi``."""
    n = stab.dim
    moves = np.argsort(stab.images, axis=1)  # (S v)[i] = v[moves[i]]
    basis = np.empty((n, n), dtype=complex)
    basis[:, 0] = psi / np.linalg.norm(psi)
    size, done = 1, 0
    while done < size < n:
        vec = basis[:, done]
        done += 1
        for move in moves:
            w = vec[move]
            for _ in range(2):  # re-orthogonalize against roundoff
                q = basis[:, :size]
                w = w - q @ (q.conj().T @ w)
            norm = np.linalg.norm(w)
            if norm > rank_tol:
                basis[:, size] = w / norm
                size += 1
                if size == n:
                    break
    return size


def orbit_rank(stab: StabilizerGroup, initial_state: np.ndarray, *, rank_tol: float = RANK_TOL) -> int:
    """Dimension of the span of the state's orbit under the stabilizer.

    This counts how many linearly independent states share the initial
    state's detection statistics; the total detection probability is
    bounded by the reciprocal of this number for localized states.  For a
    localized state it is the size of the node's orbit; otherwise it is the
    dimension of the smallest subspace that contains the state and is
    invariant under the generators, with directions below ``rank_tol``
    cut.
    """
    psi = as_state(initial_state, stab.dim)
    node = localized_node(psi)
    if node is not None:
        return int(stab._orbit_sizes[node])
    return _invariant_span_dim(stab, psi, rank_tol)


def symmetry_projector(stab: StabilizerGroup) -> np.ndarray:
    """Projector onto the stabilizer-symmetric subspace, computed once per group and read-only.

    The subspace holds the states on which every element acts as its
    phase, ``S psi = p psi``; it contains the detection state.  With
    trivial phases it is spanned by the uniform states of the node orbits,
    otherwise it is the joint eigenspace of the generator matrices.  The
    result is Hermitian and idempotent and commutes with any Hamiltonian
    the group commutes with.
    """
    return stab._subspace[0]


def symmetric_part(stab: StabilizerGroup, initial_state: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized symmetric component of a state and its weight.

    Returns ``(u, weight)`` with ``u`` the unit vector along the projection
    of the state onto the symmetric subspace and ``weight`` the squared
    projection.  All detectable content of the state lives in ``u``:
    the total detection probability factorizes as ``weight * pdet(u)``.

    For a localized state with trivial stabilizer phases the weight is
    ``1/orbit_rank`` and ``u`` is the uniform superposition of the orbit.

    Raises :class:`AsymmetricStateError` when the state is orthogonal to
    the symmetric subspace (it is then never detected, and no uniform
    component exists).
    """
    psi = as_state(initial_state, stab.dim)
    projected = symmetry_projector(stab) @ psi
    weight = float(np.real(np.vdot(psi, projected)))
    if weight < 1e-12:
        raise AsymmetricStateError(
            "symmetric component undefined: initial state is orthogonal to the symmetric subspace"
        )
    return projected / math.sqrt(weight), weight


def equivalent_dark_basis(orbit_states: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal never-detected states built from an equivalent orbit.

    Given nu orthonormal, pairwise physically equivalent states
    r_0..r_{nu-1}, returns the nu-1 states

        (j * r_j - (r_0 + ... + r_{j-1})) / sqrt(j * (j + 1)),

    each normalized, orthogonal to the others and to the uniform orbit
    superposition, and each with vanishing detection amplitude at every
    attempt (the equal transition amplitudes cancel pairwise).
    """
    states = [np.asarray(s, dtype=complex) for s in orbit_states]
    if not states:
        return []
    mat = np.column_stack(states)
    gram = mat.conj().T @ mat
    if np.max(np.abs(gram - np.eye(len(states)))) > 1e-10:
        raise StateError("orbit states must be orthonormal")
    dark = []
    for j in range(1, len(states)):
        vec = j * states[j] - np.sum(states[:j], axis=0)
        dark.append(vec / math.sqrt(j * (j + 1)))
    return dark


def upper_bound(stab: StabilizerGroup, initial_state: np.ndarray) -> float:
    """Symmetry bound on the total detection probability.

    Equals the initial state's weight in the symmetric subspace,
    ``<psi|P|psi>``; for a localized state with trivial phases this is
    ``1/orbit_rank``.  The exact detection probability never exceeds it.
    """
    psi = as_state(initial_state, stab.dim)
    value = float(np.real(np.vdot(psi, symmetry_projector(stab) @ psi)))
    return min(max(value, 0.0), 1.0)


def saturation_check(
    sd: SpectralDecomposition,
    stab: StabilizerGroup,
    detect_state: np.ndarray,
    *,
    dark_tol: float = DARK_OVERLAP_TOL,
) -> tuple[bool, int]:
    """Whether the symmetry bound is exact, and the symmetric dark count.

    Compares the dimension of the symmetric subspace with the number of
    bright states, the sectors whose detector weight exceeds ``dark_tol``.
    When they agree the symmetric subspace is entirely bright, and the
    bound ``<psi|P|psi>`` equals the detection probability for every
    initial state; each missing dimension is a symmetric dark state that
    makes the bound strict for some states.
    """
    symmetric_dark_dim = stab.symmetric_dim - _DetectorProjection(sd, detect_state).bright(dark_tol).size
    return symmetric_dark_dim == 0, symmetric_dark_dim


def node_orbits(stab: StabilizerGroup) -> list[tuple[int, ...]]:
    """Orbits of the node set under the stabilizer, ordered by least member."""
    labels = stab._orbit_labels
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [tuple(members[start:end]) for start, end in zip([0, *ends], ends)]
