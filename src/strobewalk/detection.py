"""The stroboscopic detection protocol and the total detection probability.

Two independent routes to the same number:

* ``pdet_series`` iterates the protocol itself (evolve, attempt detection,
  project out the detected component) and sums first-detection
  probabilities until the extrapolated tail is negligible.
* ``pdet_spectral`` evaluates the closed-form sector sum over the
  eigendecomposition, skipping sectors with no weight on the detection
  state (the completely dark levels).

Off the resonant detection periods the two agree; the tests rely on that
cross-check throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import StateError
from .spectral import EigenSystem, SpectralDecomposition, diagonalize, evolution_operator
from .states import as_state

__all__ = [
    "DetectionSetup",
    "DetectionReport",
    "SeriesResult",
    "first_detection_amplitudes",
    "pdet_series",
    "bright_eigenstates",
    "pdet_spectral",
    "dark_space_basis",
    "krylov_bright_span",
    "DARK_OVERLAP_TOL",
]

#: Sectors with ||P_l psi_d||^2 below this threshold count as completely dark.
DARK_OVERLAP_TOL = 1e-12

#: Window length for the geometric tail extrapolation of the series.
SERIES_WINDOW = 32

#: Default relative tail tolerance and step cap of ``pdet_series``.
SERIES_REL_TOL = 1e-6
DEFAULT_SERIES_CAP = 100_000


@dataclass(frozen=True, eq=False)
class DetectionSetup:
    """Hamiltonian, detection state, initial state and detection period.

    The Hamiltonian is diagonalized once, on construction: ``eigensystem``
    and the one-period evolution ``unitary = U(tau)`` serve every protocol
    run on this setup.
    """

    hamiltonian: np.ndarray
    detect_state: np.ndarray
    initial_state: np.ndarray
    tau: float
    eigensystem: EigenSystem = field(init=False, repr=False)
    unitary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise StateError(f"hamiltonian must be square, got shape {h.shape}")
        dim = h.shape[0]
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "detect_state", as_state(self.detect_state, dim))
        object.__setattr__(self, "initial_state", as_state(self.initial_state, dim))
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise StateError(f"tau must be positive and finite, got {self.tau}")
        es = diagonalize(h)
        object.__setattr__(self, "eigensystem", es)
        object.__setattr__(self, "unitary", evolution_operator(es, self.tau))


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Outcome of the direct protocol summation.

    ``probabilities`` holds the first-detection probability of each summed
    attempt, 1..``n_used``; ``estimate`` is their compensated sum.
    """

    estimate: float
    converged: bool
    probabilities: np.ndarray = field(repr=False)

    @property
    def n_used(self) -> int:
        return self.probabilities.shape[0]


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Total detection probability with its per-sector breakdown.

    ``per_sector`` lists ``(sector index, contribution)`` for the sectors
    that overlap the detection state; ``excluded_sectors`` are the
    completely dark levels.  ``bright_dim`` counts bright basis states (one
    per contributing sector) and ``dark_dim`` the orthogonal remainder, so
    ``bright_dim + dark_dim`` equals the Hilbert space dimension.
    ``discarded_weight`` is only nonzero for reduced-space evaluations that
    dropped a component orthogonal to the symmetric subspace.
    """

    pdet: float
    per_sector: tuple[tuple[int, float], ...]
    bright_dim: int
    dark_dim: int
    excluded_sectors: tuple[int, ...]
    method: str
    sector_degeneracies: tuple[int, ...] = ()
    discarded_weight: float = 0.0


def _amplitude_stream(u: np.ndarray, detect_state: np.ndarray, initial_state: np.ndarray) -> Iterator[complex]:
    """Yield first-detection amplitudes by iterating the survival dynamics.

    Each step applies one period of unitary evolution, reads off the
    amplitude on the detection state, then removes that component (the
    failed-detection projection) before the next step.
    """
    psi = initial_state.astype(complex, copy=True)
    detect_conj = detect_state.conj()
    while True:
        psi = u @ psi
        amp = complex(detect_conj @ psi)
        yield amp
        psi -= amp * detect_state


def first_detection_amplitudes(setup: DetectionSetup, n_max: int) -> np.ndarray:
    """Amplitudes for first detection at attempts 1..n_max.

    The n-th entry is the amplitude that the particle, evolved and probed
    every ``tau``, is detected for the first time at the n-th attempt.
    The squared moduli are the first-detection probabilities.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    stream = _amplitude_stream(setup.unitary, setup.detect_state, setup.initial_state)
    return np.array([next(stream) for _ in range(n_max)], dtype=complex)


def pdet_series(
    setup: DetectionSetup,
    rel_tol: float = SERIES_REL_TOL,
    n_cap: int = DEFAULT_SERIES_CAP,
) -> SeriesResult:
    """Total detection probability by direct summation of the protocol.

    Sums the first-detection probabilities until a geometric extrapolation
    of the remaining tail drops below ``rel_tol`` (relative to the running
    sum).  The tail is estimated from ratios of consecutive
    ``SERIES_WINDOW``-step blocks, taking the largest recent ratio so that
    a slowly decaying mode emerging late keeps the summation going.

    Near a resonant detection period the decay can be arbitrarily slow; in
    that case the sum stops at ``n_cap`` with ``converged=False`` and the
    partial value is returned.
    """
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    stream = _amplitude_stream(setup.unitary, setup.detect_state, setup.initial_state)

    terms: list[float] = []
    window_sums: list[float] = []
    running_total = 0.0
    current = 0.0
    converged = False
    for n, amp in zip(range(1, n_cap + 1), stream):
        term = abs(amp) ** 2
        terms.append(term)
        current += term
        running_total += term
        if n % SERIES_WINDOW:
            continue
        window_sums.append(current)
        current = 0.0
        if window_sums[-1] < 1e-24:
            # No measurable flow into the detector for a whole window: the
            # remaining state is dark to within roundoff.  Even 1e5 more
            # windows at this level would add < 1e-19, far below rel_tol.
            converged = True
            break
        if len(window_sums) < 4:
            continue
        ratios = [
            window_sums[i] / window_sums[i - 1]
            for i in range(len(window_sums) - 3, len(window_sums))
            if window_sums[i - 1] > 0.0
        ]
        if len(ratios) < 3 or max(ratios) >= 1.0:
            continue
        rho = max(ratios)
        tail = window_sums[-1] * rho / (1.0 - rho)
        if tail < rel_tol * max(running_total, 1e-12):
            converged = True
            break
    return SeriesResult(estimate=math.fsum(terms), converged=converged, probabilities=np.array(terms))


class _DetectorProjection:
    """The detection state projected onto every sector, once.

    ``columns[:, l]`` is ``P_l psi_d`` and ``weights[l]`` its squared norm
    ``<psi_d| P_l |psi_d>``; sectors of weight at most ``dark_tol`` are the
    completely dark levels.
    """

    def __init__(self, sd: SpectralDecomposition, detect_state: np.ndarray):
        psi_d = as_state(detect_state, sd.dim)
        coeffs = [sector.vectors.conj().T @ psi_d for sector in sd.sectors]
        self.sd = sd
        self.weights = np.array([float(np.real(c.conj() @ c)) for c in coeffs])
        self.columns = np.column_stack([sector.vectors @ c for sector, c in zip(sd.sectors, coeffs)])

    def bright(self, dark_tol: float) -> np.ndarray:
        """Indices of the sectors that overlap the detection state."""
        return np.flatnonzero(self.weights > dark_tol)

    def near_dark(self, dark_tol: float) -> float | None:
        """Largest weight dropped as dark that still exceeds ``dark_tol**2``;
        roundoff leaves truly dark sectors far below, so it may be bright."""
        w = self.weights[(self.weights > dark_tol**2) & (self.weights <= dark_tol)]
        return float(np.max(w)) if w.size else None

    def reports(self, initial_states: np.ndarray, *, dark_tol: float) -> list[DetectionReport]:
        """One report per column of ``initial_states``, from one matrix product: bright
        sector ``l`` contributes ``|<psi_d| P_l |psi_in>|^2 / <psi_d| P_l |psi_d>``."""
        bright = self.bright(dark_tol)
        excluded = tuple(np.flatnonzero(self.weights <= dark_tol).tolist())
        amps = self.columns[:, bright].conj().T @ initial_states
        contributions = np.abs(amps) ** 2 / self.weights[bright, None]
        return [
            DetectionReport(
                pdet=math.fsum(column),
                per_sector=tuple(zip(bright.tolist(), column.tolist())),
                bright_dim=bright.size,
                dark_dim=self.sd.dim - bright.size,
                excluded_sectors=excluded,
                method="spectral",
                sector_degeneracies=self.sd.degeneracies,
            )
            for column in contributions.T
        ]


def bright_eigenstates(
    sd: SpectralDecomposition,
    detect_state: np.ndarray,
    *,
    dark_tol: float = DARK_OVERLAP_TOL,
) -> list[tuple[int, np.ndarray]]:
    """Normalized projection of the detection state onto each sector.

    Returns ``(sector index, state)`` pairs for every sector whose squared
    overlap with the detection state exceeds ``dark_tol``.  Sectors below
    the threshold carry no detectable current at all and are omitted; these
    are the completely dark levels.  The returned states span the bright
    subspace: any initial state is eventually detected with probability
    equal to its squared projection onto that span.
    """
    proj = _DetectorProjection(sd, detect_state)
    return [(int(l), proj.columns[:, l] / math.sqrt(proj.weights[l])) for l in proj.bright(dark_tol)]


def pdet_spectral(
    sd: SpectralDecomposition,
    detect_state: np.ndarray,
    initial_state: np.ndarray,
    *,
    dark_tol: float = DARK_OVERLAP_TOL,
) -> DetectionReport:
    """Total detection probability from the sector decomposition.

    For each sector overlapping the detection state the contribution is

        |<psi_d| P_l |psi_in>|^2 / <psi_d| P_l |psi_d>

    and completely dark sectors are excluded from the sum.  The value does
    not depend on the basis chosen inside degenerate sectors, nor on the
    detection period as long as the sector structure is the same.
    """
    psi_in = as_state(initial_state, sd.dim)
    return _DetectorProjection(sd, detect_state).reports(psi_in[:, None], dark_tol=dark_tol)[0]


def dark_space_basis(
    sd: SpectralDecomposition,
    detect_state: np.ndarray,
    *,
    dark_tol: float = DARK_OVERLAP_TOL,
) -> np.ndarray:
    """Orthonormal basis (columns) of the never-detected subspace.

    The dark space is the orthogonal complement of the bright states; its
    dimension is ``dim - (number of bright states)``.  Every returned
    column has vanishing first-detection amplitude at every attempt.
    """
    bright = bright_eigenstates(sd, detect_state, dark_tol=dark_tol)
    if not bright:
        return np.eye(sd.dim, dtype=complex)
    b = np.column_stack([state for _, state in bright])
    # Null space of B^H via SVD: the trailing right-singular directions.
    _, svals, vh = np.linalg.svd(b.conj().T, full_matrices=True)
    rank = int(np.sum(svals > 1e-12 * max(1.0, float(svals[0]))))
    return vh[rank:].conj().T


def krylov_bright_span(h: np.ndarray, detect_state: np.ndarray, tau: float, *, rank_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal span of the detection state under repeated evolution.

    Gram-Schmidt over ``U^n |psi_d>`` for n = 0..dim-1.  Away from resonant
    periods this span equals the bright subspace, which makes it an
    independent cross-check on ``bright_eigenstates``: the two bases must
    project onto each other with vanishing residual.
    """
    es = diagonalize(np.asarray(h))
    psi_d = as_state(detect_state, es.dim)
    u = evolution_operator(es, tau)
    basis: list[np.ndarray] = []
    vec = psi_d.copy()
    for _ in range(es.dim):
        w = vec.copy()
        for b in basis:
            w -= (b.conj() @ w) * b
        for b in basis:  # second pass stabilizes the orthogonalization
            w -= (b.conj() @ w) * b
        norm = np.linalg.norm(w)
        if norm > rank_tol:
            basis.append(w / norm)
        vec = u @ vec
    return np.column_stack(basis) if basis else np.zeros((es.dim, 0), dtype=complex)
