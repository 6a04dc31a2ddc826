"""Hermitian eigendecomposition, eigenphase sectors and resonance detection.

Repeated detection every ``tau`` time units only sees the evolution operator
``U(tau) = exp(-i * tau * H)``, whose spectrum consists of phases
``E * tau mod 2*pi``.  Two energy levels whose phases coincide at a given
``tau`` are dynamically indistinguishable and must be merged into one
sector; ``fold_sectors`` performs that grouping, ``energy_sectors`` groups
by energy alone (the generic, off-resonance sector structure).  The fold is
the one judge of resonance: ``is_resonant`` reads whether a folded sector
holds two distinct levels, with no tolerance of its own.

A grouping is held as columns, not as one object per sector: the levels'
energies and eigenvectors in sector order, and the level at which each
sector starts (see :class:`SpectralDecomposition`).  The resonant periods
are columns too, one row per level pair and harmonic, with the row at which
each period's entry starts (see :class:`ResonanceListing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SpectralError

__all__ = [
    "EigenSystem",
    "SpectralDecomposition",
    "ResonanceListing",
    "diagonalize",
    "energy_sectors",
    "fold_sectors",
    "evolution_operator",
    "resonant_periods",
    "is_resonant",
]

TWO_PI = 2.0 * math.pi

#: Absolute tolerance on eigenphase gaps when folding sectors.
PHASE_GROUP_TOL = 1e-8
#: Relative tolerance on eigenvalue gaps when grouping degenerate levels.
ENERGY_GROUP_RTOL = 1e-8
#: Phase gaps in (tolerance, NEAR_DEGENERATE_FACTOR * tolerance) produce a warning.
NEAR_DEGENERATE_FACTOR = 100.0

DEFAULT_DIM_CAP = 512


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Partition of an eigensystem into quasienergy sectors, as columns.

    ``energies`` and the eigenvector columns of ``vectors`` list the levels
    in sector order; sector ``l`` holds the levels ``bounds[l]:bounds[l + 1]``,
    so ``bounds`` has one entry per sector plus the end.  ``phases[l]`` is
    sector ``l``'s phase in [0, 2*pi), and ``phases`` is None when the
    levels were grouped by energy alone.  ``tau`` is the detection period
    used for phase folding, or None for a plain energy grouping.
    ``warnings`` lists near-degenerate gaps that fell between the grouping
    tolerance and 100x that tolerance.
    """

    energies: np.ndarray
    vectors: np.ndarray
    bounds: np.ndarray
    phases: np.ndarray | None
    tau: float | None
    warnings: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    @property
    def degeneracies(self) -> np.ndarray:
        """The number of levels in each sector."""
        return np.diff(self.bounds)


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is positive real.

    Real columns stay real.  Their factor ``p * (1 / |p|)`` is the real part
    of what numpy's complex division ``conj(p) / |p|`` computes, so they get
    the bits they would get as complex columns, up to the sign of zeros;
    ``np.sign(p)`` would not, as ``p * (1 / |p|)`` can miss 1 by a unit in
    the last place.
    """
    significant = np.abs(vectors) > 1e-12
    pivots = vectors[significant.argmax(axis=0), np.arange(vectors.shape[1])]
    # A column with no significant component keeps its phase.
    pivots[~significant.any(axis=0)] = 1.0
    if np.iscomplexobj(vectors):
        return vectors * (np.conj(pivots) / np.abs(pivots))
    return vectors * (pivots * (1.0 / np.abs(pivots)))


def _check_dim(dim: int, dim_cap: int = DEFAULT_DIM_CAP) -> None:
    """Raise :class:`SpectralError` if a ``dim x dim`` matrix is above the cap of :func:`diagonalize`."""
    if dim > dim_cap:
        raise SpectralError(f"matrix dimension {dim} exceeds the cap {dim_cap}")


def diagonalize(h: np.ndarray, *, dim_cap: int = DEFAULT_DIM_CAP) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come out ascending; each eigenvector is rotated so that its
    first nonzero component is positive real, which makes the output
    deterministic for identical input bits.  The residual
    ``||H v - E v|| <= 1e-10 * ||H||`` and pairwise orthonormality within
    1e-10 are verified before returning.  The sign fix and the checks run
    in the arithmetic of ``eigh``'s output, real for a real ``H``; the
    eigenvectors are cast to complex once, at the end.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    _check_dim(dim, dim_cap)
    scale = float(np.max(np.abs(h))) if dim else 0.0
    # ``not <=``: a NaN difference, from a NaN or an infinite entry, fails the check.
    if dim and not np.max(np.abs(h - h.conj().T)) <= 1e-12 * max(1.0, scale):
        raise SpectralError("matrix is not Hermitian")
    try:
        eigenvalues, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigendecomposition of {dim}x{dim} matrix did not converge: {exc}") from exc
    vectors = _fix_eigenvector_signs(vectors)

    hnorm = float(np.max(np.abs(eigenvalues))) if dim else 0.0
    residual = float(np.max(np.abs(h @ vectors - vectors * eigenvalues))) if dim else 0.0
    if residual > 1e-10 * max(hnorm, 1e-300):
        raise SpectralError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * ||H|| = {1e-10 * hnorm:.3e}"
        )
    gram = vectors.conj().T @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(dim))))
    if ortho > 1e-10:
        raise SpectralError(f"eigenvectors not orthonormal: deviation {ortho:.3e}")
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=vectors.astype(complex, copy=False))


def _group_starts(keys: np.ndarray, tol: float) -> np.ndarray:
    """First index of each cluster of ascending keys: a gap above tol starts a cluster."""
    if not keys.size:
        return np.zeros(0, dtype=np.intp)
    return np.concatenate(([0], np.flatnonzero(np.diff(keys) > tol) + 1))


def _near_degenerate_warnings(keys: np.ndarray, starts: np.ndarray, tol: float, what: str) -> list[str]:
    """One note per gap between clusters that lies below ``NEAR_DEGENERATE_FACTOR * tol``."""
    later = starts[1:]
    near = later[keys[later] - keys[later - 1] < NEAR_DEGENERATE_FACTOR * tol]
    below, above = keys[near - 1].tolist(), keys[near].tolist()
    return [
        f"near-degenerate {what} gap {hi - lo:.3e} between groups at {lo:.12g} and {hi:.12g}"
        for lo, hi in zip(below, above)
    ]


def _energy_tol(ev: np.ndarray) -> float:
    """Grouping tolerance ``ENERGY_GROUP_RTOL`` relative to the scale ``max(1, max|E|)``."""
    return ENERGY_GROUP_RTOL * max(1.0, float(np.max(np.abs(ev))) if ev.size else 0.0)


def energy_sectors(es: EigenSystem) -> SpectralDecomposition:
    """Group eigenpairs into degenerate energy levels.

    The grouping tolerance is ``ENERGY_GROUP_RTOL`` relative to the spectral
    scale ``max(1, max|E|)``, the rule by which ``is_resonant`` and
    ``resonant_periods`` call two levels distinct.
    """
    ev = es.eigenvalues
    tol = _energy_tol(ev)
    starts = _group_starts(ev, tol)
    warnings = tuple(_near_degenerate_warnings(ev, starts, tol, "energy"))
    return SpectralDecomposition(energies=ev, vectors=es.eigenvectors, bounds=np.append(starts, ev.shape[0]),
                                 phases=None, tau=None, warnings=warnings)


def fold_sectors(es: EigenSystem, tau: float, *, phase_tol: float = PHASE_GROUP_TOL) -> SpectralDecomposition:
    """Group eigenpairs by their evolution phase ``E * tau mod 2*pi``.

    Levels whose phases agree within ``phase_tol`` merge into one sector,
    including pairs that meet across the 0 / 2*pi seam.  Merging happens
    exactly at the resonant detection periods; away from them the sectors
    coincide with the degenerate energy levels.

    The levels are grouped as columns, in one pass of array operations:
    sorted by (phase, energy), a phase gap above ``phase_tol`` starts a
    group, and the last group joins the first when the gap across the seam
    closes.  A fold never splits an energy level, as :func:`energy_sectors`
    groups them: groups that share a level merge.  That matters where one
    level's eigenvalues lie more than ``phase_tol`` apart in phase: at a
    ``tau`` so large that their last-bit spread shows, or at a
    ``phase_tol`` below it.  The groups come out in phase order, each at
    its first member.  One stable sort by
    (group, energy) then orders the levels, each sector's phase is the
    least phase of its members, and one gather of the eigenvector columns
    serves every sector.  Raises :class:`SpectralError` when some
    ``E * tau`` overflows.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ev = es.eigenvalues
    _check_phase_range(ev, tau)
    phases = np.mod(ev * tau, TWO_PI)
    order = np.lexsort((ev, phases))
    sorted_phases = phases[order]
    starts = _group_starts(sorted_phases, phase_tol)
    warnings = _near_degenerate_warnings(sorted_phases, starts, phase_tol, "phase")
    group = np.zeros(ev.shape[0], dtype=np.intp)
    group[starts[1:]] = 1
    group = np.cumsum(group)
    if starts.size > 1:
        # Merge across the wraparound seam: the last group joins the first
        # when the circular gap closes.
        seam_gap = (sorted_phases[0] + TWO_PI) - sorted_phases[-1]
        if seam_gap <= phase_tol:
            group[starts[-1]:] = 0
        elif seam_gap < NEAR_DEGENERATE_FACTOR * phase_tol:
            warnings.append(f"near-degenerate phase gap {seam_gap:.3e} across the 0/2pi seam")
    level_group = np.empty_like(group)
    level_group[order] = group
    level_group = _whole_levels(level_group, ev)
    levels = np.lexsort((ev, level_group))
    bounds = np.append(0, np.cumsum(np.bincount(level_group)))
    sector_phases = np.minimum.reduceat(phases[levels], bounds[:-1]) if ev.size else np.zeros(0)
    return SpectralDecomposition(energies=ev[levels], vectors=es.eigenvectors[:, levels], bounds=bounds,
                                 phases=sector_phases, tau=float(tau), warnings=tuple(warnings))


def _whole_levels(group: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """``group``, a phase group per eigenvalue in ascending order, with the groups that share a level merged.

    A level is a run of eigenvalues as :func:`energy_sectors` groups them.
    Its eigenvalues differ in their last bits, so at a large ``tau`` their
    phases can lie more than ``phase_tol`` apart (about ``2e-15 * tau`` on
    hypercube:3).  The groups are merged as the components of the graph
    that joins the groups of consecutive eigenvalues of one level, by
    hooking each group onto the least group it meets until every pair
    agrees; they are numbered again in the order of their least group.
    """
    split = (ev[1:] - ev[:-1] <= _energy_tol(ev)) & (group[1:] != group[:-1])
    if not split.any():
        return group
    a, b = group[:-1][split], group[1:][split]
    label = np.arange(int(group.max()) + 1)
    while not np.array_equal(label[a], label[b]):
        low = np.minimum(label[a], label[b])
        np.minimum.at(label, label[a], low)
        np.minimum.at(label, label[b], low)
        label = label[label]
    return np.unique(label[group], return_inverse=True)[1]


def evolution_operator(es: EigenSystem, tau: float) -> np.ndarray:
    """Unitary one-period evolution ``exp(-i * tau * H)`` from the eigensystem.

    Raises :class:`SpectralError` when some ``E * tau`` overflows.
    """
    _check_phase_range(es.eigenvalues, tau)
    v = es.eigenvectors
    phases = np.exp(-1j * es.eigenvalues * tau)
    return (v * phases) @ v.conj().T


def _check_phase_range(ev: np.ndarray, tau: float) -> None:
    """Raise :class:`SpectralError` if ``E * tau`` overflows for some level: then so does ``max|E| * tau``."""
    scale = float(np.max(np.abs(ev))) if ev.size else 0.0
    if not math.isfinite(scale * tau):
        raise SpectralError(f"E * tau overflows at tau={tau!r}: the largest |E| is {scale!r}")


class ResonanceListing(NamedTuple):
    """Resonant periods as columns: entry ``e`` holds the pairs ``starts[e]:starts[e + 1]``.

    ``taus`` holds each entry's period, ascending; ``starts`` the index of
    each entry's first pair; ``l0``, ``l1`` and ``k`` one row per pair: the
    indices of two distinct levels (in ascending-energy order, ``l0 < l1``)
    and the positive harmonic with ``tau * |E_l1 - E_l0| = 2*pi*k``.
    """

    taus: np.ndarray
    starts: np.ndarray
    l0: np.ndarray
    l1: np.ndarray
    k: np.ndarray


def resonant_periods(es: EigenSystem, tau_max: float) -> ResonanceListing:
    """All resonant detection periods up to ``tau_max``, as columns.

    A period is resonant when ``tau * |E_l - E_l'|`` is a multiple of
    2*pi for some pair of distinct levels; every such period (including
    harmonics) is listed ascending, with coinciding periods from different
    level pairs merged into one entry.

    The periods ``k * 2*pi / gap`` of all level pairs ``l < l'`` and
    harmonics ``k`` with ``k * base <= tau_max * (1 + 1e-12)`` are built as
    one array and stably sorted, so equal periods keep the pair order
    ``(l, l', k)``.  A period joins the current entry when it lies within
    ``1e-9 * max(1, tau)`` of the entry's *first* period, ``tau`` being the
    joining period; a chain of near neighbours can therefore start a new
    entry although each lies within the tolerance of the one before.

    Raises :class:`SpectralError` when the periods cannot be indexed as an
    array, or when their arrays do not fit in memory.
    """
    if tau_max <= 0:
        raise ValueError(f"tau_max must be positive, got {tau_max}")
    # The lowest member energy of each degenerate level, as ``energy_sectors`` groups them.
    ev = es.eigenvalues
    levels = ev[_group_starts(ev, _energy_tol(ev))]
    l0, l1 = np.triu_indices(levels.shape[0], k=1)
    base = TWO_PI / np.abs(levels[l1] - levels[l0])
    limit = tau_max * (1.0 + 1e-12)
    # The quotient's rounding can miss the last harmonic by one either way: settle
    # the count with the test ``k * base <= limit`` itself.
    count = np.floor(limit / base)
    count += (count + 1.0) * base <= limit
    count -= (count >= 1.0) & (count * base > limit)
    # An overflow guard, not a cap: no array of 8-byte entries that long can be indexed.
    total = float(np.sum(count))
    if not total * 8 < np.iinfo(np.intp).max:
        raise SpectralError(f"{total:.3g} resonant periods up to tau_max={tau_max:g} do not fit in an array")
    count = count.astype(np.intp)
    try:
        pair = np.repeat(np.arange(base.shape[0]), count)
        k = np.arange(1, pair.shape[0] + 1) - np.repeat(np.cumsum(count) - count, count)
        taus = k * base[pair]
        order = np.argsort(taus, kind="stable")
        taus, pair, k = taus[order], pair[order], k[order]
    except MemoryError:
        raise SpectralError(
            f"{total:.3g} resonant periods up to tau_max={tau_max:g} do not fit in memory"
        ) from None

    # A gap to the previous period beyond the tolerance always starts an entry;
    # only the near neighbours need the comparison with their entry's first period.
    tol = 1e-9 * np.maximum(1.0, taus)
    near = np.flatnonzero(np.diff(taus) <= tol[1:]) + 1
    starts = np.ones(taus.shape[0], dtype=bool)
    starts[near] = False
    first = previous = -1
    for j in near.tolist():
        if j - 1 != previous:  # the period before starts an entry
            first = j - 1
        if taus[j] - taus[first] > tol[j]:
            starts[j] = True
            first = j
        previous = j
    starts = np.flatnonzero(starts)
    return ResonanceListing(taus[starts], starts, l0[pair], l1[pair], k)


def is_resonant(sd: SpectralDecomposition) -> bool:
    """Whether the fold merged two distinct levels into one sector.

    Two levels are distinct when their energies lie more than the
    ``energy_sectors`` tolerance apart, and a sector lists its levels in
    ascending energy, so only the gaps inside a sector are read.  The
    answer follows the ``phase_tol`` the sectors were folded with; an
    energy grouping (``phases`` None) is never resonant.
    """
    if sd.phases is None:
        return False
    distinct = np.diff(sd.energies) > _energy_tol(sd.energies)
    distinct[sd.bounds[1:-1] - 1] = False  # the gaps between sectors
    return bool(distinct.any())
