"""Reduction of the walk to the symmetric subspace: the quotient graph.

For a detection state localized on a node, the stabilizer orbits of the
node set define equivalence classes.  Replacing each class by the uniform
superposition of its members turns the Hamiltonian into a smaller matrix
on the class space, which is again a (weighted) graph walk.  All bright
states live in that subspace, so the total detection probability computed
there matches the full-space value exactly, at a fraction of the
diagonalization cost.

The classes are the stabilizer's node orbits (``node_orbits``), numbered by
least member: a class is the tuple of its members, its id its position and
its multiplicity its length.  They read the stabilizer's one orbit
labelling, so the lift is one scatter of ``1/sqrt(size)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .detection import DARK_OVERLAP_TOL, DetectionReport, _report
from .errors import NonLocalizedDetectionError, StrobewalkError
from .graphs import WeightedGraph
from .spectral import EigenSystem, diagonalize, energy_sectors, fold_sectors
from .states import as_state, localized_node, localized_state
from .symmetry import StabilizerGroup, node_orbits

__all__ = [
    "QuotientSystem",
    "symmetrize",
    "pdet_symmetrized",
    "quotient_graph",
]


@dataclass(frozen=True, eq=False)
class QuotientSystem:
    """Symmetrized Hamiltonian on the space of node equivalence classes.

    ``classes`` holds each class's members, in class order.  ``lift`` has
    one orthonormal column per class: the uniform superposition of the
    class members in the original space.  By construction
    ``lift.T @ H @ lift == h_s`` entrywise (within roundoff), and lifting
    any eigenvector of ``h_s`` gives an eigenvector of the original
    Hamiltonian with the same eigenvalue.  ``h_s`` is diagonalized once, on
    first use of ``eigensystem``.
    """

    h_s: np.ndarray
    classes: tuple[tuple[int, ...], ...]
    lift: np.ndarray
    detect_class: int

    @property
    def original_dim(self) -> int:
        return self.lift.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.h_s.shape[0]

    @cached_property
    def eigensystem(self) -> EigenSystem:
        return diagonalize(self.h_s)


def symmetrize(h: np.ndarray, stab: StabilizerGroup, detect_state: np.ndarray) -> QuotientSystem:
    """Fold a Hamiltonian onto the stabilizer orbits of the node basis.

    Requires the detection state to be localized on a node (the class
    construction groups basis nodes, and a delocalized detection state is
    not fixed by node orbits).  Classes are ordered by their least member;
    the class of the detection node is always a singleton.

    ``h_s = lift.T @ h @ lift``: the entry between classes A and B sums the
    original couplings over all member pairs, scaled by
    ``1/sqrt(|A| * |B|)``; couplings internal to a class fold into its
    diagonal (on-site) entry.
    """
    h = np.asarray(h)
    psi_d = as_state(detect_state, stab.dim)
    detect_node = localized_node(psi_d)
    if detect_node is None:
        raise NonLocalizedDetectionError(
            "quotient construction requires a detection state localized on a single node"
        )
    if not stab.has_trivial_phases:
        raise StrobewalkError("localized detection state must have trivial stabilizer phases")

    classes = tuple(node_orbits(stab))
    labels, sizes = stab._orbit_labels, stab._orbit_sizes
    if sizes[detect_node] != 1:
        raise StrobewalkError("detection node is not fixed by the stabilizer")
    lift = np.zeros((stab.dim, len(classes)))
    lift[np.arange(stab.dim), labels] = 1.0 / np.sqrt(sizes)

    h_s = lift.T @ h @ lift
    h_s = (h_s + h_s.conj().T) / 2.0
    return QuotientSystem(h_s=h_s, classes=classes, lift=lift, detect_class=int(labels[detect_node]))


def pdet_symmetrized(
    q: QuotientSystem,
    initial_state: np.ndarray,
    tau: float | None = None,
    *,
    dark_tol: float = DARK_OVERLAP_TOL,
) -> DetectionReport:
    """Total detection probability evaluated in the class space.

    The initial state is projected onto the symmetric subspace via the
    lift map; any orthogonal remainder can never be detected and its
    weight is recorded in the report as ``discarded_weight``.  With
    ``tau`` given, sectors are folded at that detection period, otherwise
    they are grouped by energy (the off-resonance structure).

    The result equals the full-space spectral value for every initial
    state.
    """
    psi_in = as_state(initial_state, q.original_dim)
    reduced = q.lift.T.conj() @ psi_in
    discarded = max(0.0, 1.0 - float(np.real(np.vdot(reduced, reduced))))
    es = q.eigensystem
    sd = energy_sectors(es) if tau is None else fold_sectors(es, tau)
    return _report(sd, localized_state(q.reduced_dim, q.detect_class), reduced, dark_tol, discarded)


def quotient_graph(q: QuotientSystem) -> WeightedGraph:
    """Weighted graph realizing the symmetrized Hamiltonian.

    The graph satisfies ``hamiltonian(graph, 1.0) == q.h_s``: edge weights
    are the negated off-diagonal entries (carrying the sqrt-multiplicity
    factors) and class-internal couplings appear as on-site energies.
    Labels list the member nodes of each class.
    """
    k = q.reduced_dim
    h = np.real(q.h_s)
    a, b = np.triu_indices(k, 1)  # row by row, as a nested loop over a < b
    w = h[a, b]
    kept = w != 0.0
    labels = tuple(",".join(map(str, members)) for members in q.classes)
    return WeightedGraph(k, a[kept], b[kept], -w[kept], h.diagonal(), labels)
