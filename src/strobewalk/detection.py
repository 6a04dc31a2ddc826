"""The stroboscopic detection protocol and the total detection probability.

Two independent routes to the same number:

* ``pdet_series`` iterates the protocol itself (evolve, attempt detection,
  project out the detected component), ``SERIES_WINDOW`` attempts per
  matrix product, and sums first-detection probabilities until the
  survival norm or the extrapolated tail is negligible.
* ``pdet_spectral`` evaluates the closed-form sector sum over the
  eigendecomposition, skipping sectors with no weight on the detection
  state (the completely dark levels).

Off the resonant detection periods the two agree; the tests rely on that
cross-check throughout.
"""

from __future__ import annotations

import itertools
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

#: Attempts per protocol window: one matrix product advances the protocol
#: this far, and the stop rules of the series are tested once per window.
SERIES_WINDOW = 32

#: Default relative tail tolerance and step cap of ``pdet_series``.
SERIES_REL_TOL = 1e-6
DEFAULT_SERIES_CAP = 100_000


@dataclass(frozen=True, eq=False)
class DetectionSetup:
    """Hamiltonian, detection state, initial state and detection period.

    The Hamiltonian is diagonalized once, on construction: ``eigensystem``,
    the one-period evolution ``unitary = U(tau)`` and the protocol's
    ``window_operator`` (see ``_window_operator``) serve every protocol run
    on this setup.
    """

    hamiltonian: np.ndarray
    detect_state: np.ndarray
    initial_state: np.ndarray
    tau: float
    eigensystem: EigenSystem = field(init=False, repr=False)
    unitary: np.ndarray = field(init=False, repr=False)
    window_operator: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "window_operator", _window_operator(self.unitary, self.detect_state))


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Outcome of the direct protocol summation.

    ``probabilities`` holds the first-detection probability of each summed
    attempt, 1..``n_used``; ``estimate`` is their compensated sum.  ``stop``
    names the rule that ended the summation: ``"survival"``,
    ``"geometric"`` or ``"dark-window"`` (see ``pdet_series``), or
    ``"cap"`` when the step cap came first; ``converged`` is
    ``stop != "cap"``.
    """

    estimate: float
    converged: bool
    stop: str
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


def _window_operator(unitary: np.ndarray, detect_state: np.ndarray) -> np.ndarray:
    """The protocol over one window as one ``(SERIES_WINDOW + N) x N`` matrix.

    A failed attempt maps the state by ``S = (1 - |d><d|) U``.  Row ``j`` of
    the first ``SERIES_WINDOW`` rows is ``<d| U S^j``: applied to the state
    after ``n`` failed attempts it gives the first-detection amplitude of
    attempt ``n + j + 1``.  The last ``N`` rows are ``S^SERIES_WINDOW``,
    which carries that state ``SERIES_WINDOW`` failed attempts on.
    """
    dim = unitary.shape[0]
    detect_row = detect_state.conj() @ unitary
    s = unitary - np.outer(detect_state, detect_row)
    op = np.empty((SERIES_WINDOW + dim, dim), dtype=complex)
    op[0] = detect_row
    for j in range(1, SERIES_WINDOW):
        op[j] = op[j - 1] @ s
    op[SERIES_WINDOW:] = np.linalg.matrix_power(s, SERIES_WINDOW)
    return op


def _protocol_windows(setup: DetectionSetup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, window by window, the next ``SERIES_WINDOW`` first-detection
    amplitudes and the undetected (unnormalized) state after them."""
    psi = setup.initial_state.astype(complex)
    while True:
        out = setup.window_operator @ psi
        psi = out[SERIES_WINDOW:]
        yield out[:SERIES_WINDOW], psi


def first_detection_amplitudes(setup: DetectionSetup, n_max: int) -> np.ndarray:
    """Amplitudes for first detection at attempts 1..n_max.

    The n-th entry is the amplitude that the particle, evolved and probed
    every ``tau``, is detected for the first time at the n-th attempt.
    The squared moduli are the first-detection probabilities.  The protocol
    runs in windows of ``SERIES_WINDOW`` attempts, the last one cut to
    ``n_max``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    windows = itertools.islice(_protocol_windows(setup), -(-n_max // SERIES_WINDOW))
    return np.concatenate([amps for amps, _ in windows])[:n_max]


def _stop_rule(window_sums: list[float], total: float, survival: float, rel_tol: float) -> str | None:
    """The rule that ends the series after the latest window, if any."""
    if survival < rel_tol * total:
        return "survival"
    if window_sums[-1] < 1e-24:
        # No measurable flow into the detector for a whole window: the
        # remaining state is dark to within roundoff.  Even 1e5 more
        # windows at this level would add < 1e-19, far below rel_tol.
        return "dark-window"
    if len(window_sums) < 4:
        return None
    ratios = [
        window_sums[i] / window_sums[i - 1]
        for i in range(len(window_sums) - 3, len(window_sums))
        if window_sums[i - 1] > 0.0
    ]
    if len(ratios) < 3 or max(ratios) >= 1.0:
        return None
    rho = max(ratios)
    tail = window_sums[-1] * rho / (1.0 - rho)
    return "geometric" if tail < rel_tol * max(total, 1e-12) else None


def pdet_series(
    setup: DetectionSetup,
    rel_tol: float = SERIES_REL_TOL,
    n_cap: int = DEFAULT_SERIES_CAP,
) -> SeriesResult:
    """Total detection probability by direct summation of the protocol.

    The protocol advances one window of ``SERIES_WINDOW`` attempts per
    matrix product with ``setup.window_operator``, which yields the
    window's first-detection amplitudes and the undetected state after it.
    After each full window three rules are tested, in this order:

    * ``"survival"``: the survival norm ``||psi_n||^2`` is below
      ``rel_tol`` times the running sum.  By unitarity the remaining tail
      never exceeds that norm, so this stop is strict.
    * ``"dark-window"``: the whole window summed to below 1e-24, so the
      remaining state is dark to within roundoff.
    * ``"geometric"``: a geometric extrapolation of the remaining tail is
      below ``rel_tol`` times the running sum.  The tail is estimated from
      ratios of consecutive window sums, taking the largest of the last
      three so that a slowly decaying mode emerging late keeps the
      summation going.  This rule serves initial states with a dark part,
      whose survival norm levels off at the dark weight.

    Near a resonant detection period the decay can be arbitrarily slow; in
    that case the sum stops at ``n_cap`` (a last partial window is summed
    but not tested) with ``stop="cap"`` and ``converged=False``, and the
    partial value is returned.
    """
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    full, rest = divmod(max(n_cap, 0), SERIES_WINDOW)
    windows = _protocol_windows(setup)
    blocks: list[np.ndarray] = []
    window_sums: list[float] = []
    total = 0.0
    for amps, psi in itertools.islice(windows, full):
        blocks.append(np.abs(amps) ** 2)
        window_sums.append(float(np.sum(blocks[-1])))
        total += window_sums[-1]
        stop = _stop_rule(window_sums, total, float(np.vdot(psi, psi).real), rel_tol)
        if stop is not None:
            break
    else:
        stop = "cap"
        if rest:
            blocks.append(np.abs(next(windows)[0][:rest]) ** 2)
    probabilities = np.concatenate(blocks) if blocks else np.zeros(0)
    return SeriesResult(
        estimate=math.fsum(probabilities),
        converged=stop != "cap",
        stop=stop,
        probabilities=probabilities,
    )


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
