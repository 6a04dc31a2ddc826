"""The stroboscopic detection protocol and the total detection probability.

Two routes to the same number:

* ``pdet_series`` iterates the protocol itself (evolve, attempt detection,
  project out the detected component), ``SERIES_WINDOW`` attempts per
  matrix product, and sums first-detection probabilities until the bright
  survival is negligible: the undetected state's weight on the bright
  space, which is exactly the rest of the series.  The windows run in
  blocks of up to ``SERIES_BLOCK``, and the stop rule, unchanged for each
  window, is tested a block at a time.  The probabilities come from
  ``U(tau)`` and the detector alone; only where the sum stops reads the
  sectors.
* ``pdet_spectral`` evaluates the closed-form sector sum over the
  eigendecomposition, skipping sectors with no weight on the detection
  state (the completely dark levels).

The detection state's projection onto every sector, ``_DetectorProjection``,
is the one source of the bright sectors: their columns, normalized, are the
bright basis that both routes read, and the dark space is its complement.

Off the resonant detection periods the two agree; the tests rely on that
cross-check throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import StateError
from .spectral import EigenSystem, SpectralDecomposition, diagonalize, evolution_operator, fold_sectors
from .states import as_state

__all__ = [
    "DetectionSetup",
    "DetectionReport",
    "SeriesResult",
    "first_detection_amplitudes",
    "pdet_series",
    "pdet_spectral",
    "DARK_OVERLAP_TOL",
]

#: Sectors with ||P_l psi_d||^2 below this threshold count as completely dark.
DARK_OVERLAP_TOL = 1e-12

#: Attempts per protocol window: one matrix product advances the protocol
#: this far, and the stop rule of the series is decided once per window
#: (for a block of windows at a time, see ``SERIES_BLOCK``).
SERIES_WINDOW = 32
#: Most windows per block of the protocol loop: the stop rule is tested for
#: a whole block at once, and blocks grow 1, 2, 4, ... up to this size.
SERIES_BLOCK = 64
#: A window whose block-wise bright survival lies this close (relative) to
#: its limit is tested again window by window (see ``_first_below``).
_RETEST_BAND = 1e-8

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
    attempt, 1..``n_used``; ``estimate`` is their compensated sum.
    ``converged`` is True when the rest of the series fell below the
    tolerance (see ``pdet_series``), and False when the step cap came first.
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


def _protocol_blocks(setup: DetectionSetup, windows: int) -> Iterator[np.ndarray]:
    """Yield the first ``windows`` windows of the protocol in blocks of 1, 2,
    4, ... up to ``SERIES_BLOCK`` windows, a row each: the window's
    ``SERIES_WINDOW`` first-detection amplitudes, then the undetected
    (unnormalized) state after it.  The next block overwrites the rows."""
    op = setup.window_operator
    rows = np.empty((min(windows, SERIES_BLOCK), op.shape[0]), dtype=complex)
    psi = setup.initial_state.astype(complex)
    size = 1
    while windows > 0:
        block = rows[:min(size, windows)]
        for row in block:
            np.matmul(op, psi, out=row)
            psi = row[SERIES_WINDOW:]
        # The next block's first row must not overwrite the state it starts from.
        psi = psi.copy()
        yield block
        windows -= block.shape[0]
        size = min(2 * size, SERIES_BLOCK)


def _check_count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    return int(value)


def first_detection_amplitudes(setup: DetectionSetup, n_max: int) -> np.ndarray:
    """Amplitudes for first detection at attempts 1..n_max.

    The n-th entry is the amplitude that the particle, evolved and probed
    every ``tau``, is detected for the first time at the n-th attempt.
    The squared moduli are the first-detection probabilities.  The protocol
    runs in windows of ``SERIES_WINDOW`` attempts, the last one cut to
    ``n_max``, which must be an int >= 1.
    """
    n_max = _check_count("n_max", n_max)
    blocks = [block[:, :SERIES_WINDOW].copy() for block in _protocol_blocks(setup, -(-n_max // SERIES_WINDOW))]
    return np.concatenate(blocks, axis=None)[:n_max]


def pdet_series(
    setup: DetectionSetup,
    rel_tol: float = SERIES_REL_TOL,
    n_cap: int = DEFAULT_SERIES_CAP,
) -> SeriesResult:
    """Total detection probability by direct summation of the protocol.

    The protocol advances one window of ``SERIES_WINDOW`` attempts per
    matrix product with ``setup.window_operator``, which yields the
    window's first-detection amplitudes and the undetected state ``psi_n``
    after it.  A failed attempt leaves the dark space alone, so the rest of
    the series is exactly the bright survival ``||Q^H psi_n||^2``, where the
    columns of ``Q`` are the bright sectors of ``U(tau)``: those of
    ``fold_sectors`` and ``DARK_OVERLAP_TOL``, as ``pdet_spectral`` sums by
    default (see :meth:`_DetectorProjection.bright_basis`).  After each
    full window the series stops, converged, once that is below ``rel_tol``
    times the running sum, floored at ``DARK_OVERLAP_TOL`` so that a fully
    dark initial state stops after one window.

    The windows run in blocks (see ``_protocol_blocks``), and the rule is
    tested for a whole block at once (see ``_first_below``), with the
    decisions of the window-by-window rule: the same probabilities,
    ``n_used`` and ``converged``, bit for bit.

    Near a resonant detection period the decay can be arbitrarily slow; in
    that case the sum stops at ``n_cap`` (a last partial window is summed
    but not tested) with ``converged=False``, and the partial value is
    returned.  ``rel_tol`` must be finite and positive, and ``n_cap`` an
    int >= 1.
    """
    sd = fold_sectors(setup.eigensystem, setup.tau)
    basis = _DetectorProjection(sd, setup.detect_state).bright_basis(DARK_OVERLAP_TOL)
    return _series(setup, basis, rel_tol, n_cap)


def _series(setup: DetectionSetup, basis: np.ndarray, rel_tol: float, n_cap: int) -> SeriesResult:
    """:func:`pdet_series`, stopped on the bright survival in the orthonormal
    columns of ``basis``."""
    try:
        valid = math.isfinite(rel_tol) and rel_tol > 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    n_cap = _check_count("n_cap", n_cap)
    full, rest = divmod(n_cap, SERIES_WINDOW)
    q_conj = basis.conj()
    blocks: list[np.ndarray] = []
    total = 0.0
    converged, n_used = False, n_cap
    done = 0  # full windows before the block
    for block in _protocol_blocks(setup, full + (rest > 0)):
        blocks.append(np.abs(block[:, :SERIES_WINDOW]) ** 2)
        tested = min(block.shape[0], full - done)  # a last partial window is not tested
        if tested < 1:
            break
        # The running sum after each window, accumulated left to right as window by window.
        totals = blocks[-1][:tested].sum(axis=1)
        totals[0] += total
        totals = totals.cumsum()
        total = float(totals[-1])
        first = _first_below(block[:tested, SERIES_WINDOW:], totals, rel_tol, q_conj)
        if first is not None:
            converged, n_used = True, (done + first + 1) * SERIES_WINDOW
            break
        done += tested
    probabilities = np.concatenate(blocks, axis=None)[:n_used]
    return SeriesResult(estimate=math.fsum(probabilities), converged=converged, probabilities=probabilities)


def _first_below(states: np.ndarray, totals: np.ndarray, rel_tol: float, q_conj: np.ndarray) -> int | None:
    """The first of a block of windows whose bright survival is below ``rel_tol``
    times its running sum, floored at ``DARK_OVERLAP_TOL``: the stop rule of
    ``pdet_series``, tested for the block at once.

    Row ``j`` of ``states`` is the state after window ``j``, and ``totals[j]``
    the running sum there.  One product with ``Q^H`` gives the survivals of
    all the windows.  They may differ from :func:`_bright_survival` in the
    last bits, far less than ``_RETEST_BAND``, so only a window that close
    to its limit needs its own.
    """
    bright = (states @ q_conj).view(float)
    survival = np.einsum("ij,ij->i", bright, bright)
    floor = np.maximum(totals, DARK_OVERLAP_TOL)
    for j in np.flatnonzero(survival < (1 + _RETEST_BAND) * rel_tol * floor).tolist():
        limit = rel_tol * float(floor[j])
        if survival[j] <= (1 - _RETEST_BAND) * limit or _bright_survival(q_conj, states[j]) < limit:
            return j
    return None


def _bright_survival(q_conj: np.ndarray, psi: np.ndarray) -> float:
    """``||Q^H psi||^2``, the bright survival of one state, as the stop rule defines it."""
    bright = q_conj.T @ psi
    return float(np.vdot(bright, bright).real)


class _PdetColumns(NamedTuple):
    """The detection probability of each of a set of initial states.

    ``contributions[j, i]`` is what bright sector ``bright[j]`` contributes
    for initial state ``i``, and ``pdet[i]`` the ``math.fsum`` of column
    ``i``.  ``bright.size`` (the bright dimension), ``dark_dim`` and
    ``excluded_sectors`` are those of every state (see
    :class:`DetectionReport`).
    """

    pdet: list[float]
    contributions: np.ndarray
    bright: np.ndarray
    dark_dim: int
    excluded_sectors: tuple[int, ...]


class _DetectorProjection:
    """The detection state projected onto every sector, once, as columns.

    ``columns[:, l]`` is ``P_l psi_d`` and ``weights[l]`` its squared norm
    ``<psi_d| P_l |psi_d>``; sectors of weight at most ``dark_tol`` are the
    completely dark levels.

    The nondegenerate sectors, one eigenvector ``v`` each (column
    ``bounds[l]`` of the decomposition's ``vectors``), get their
    coefficients ``c = <v|psi_d>`` from one product of the detection state
    with all their vectors.  ``weights`` (``|c|^2``) and ``columns``
    (``c v``) follow elementwise, in the real arithmetic of a one-column
    product, so they equal the sector-by-sector products bit for bit.  A
    degenerate sector keeps its own products, whose sums run over its
    vectors: a C-ordered copy of its column slice, since BLAS sums in an
    order that depends on the memory layout.
    """

    def __init__(self, sd: SpectralDecomposition, detect_state: np.ndarray):
        psi_d = as_state(detect_state, sd.dim)
        degeneracy = sd.degeneracies
        self.sd = sd
        self.weights = np.empty(degeneracy.size)
        self.columns = np.empty((sd.dim, degeneracy.size), dtype=complex)
        single = np.flatnonzero(degeneracy == 1)
        if single.size:
            v = sd.vectors[:, sd.bounds[single]]
            c = v.conj().T @ psi_d
            self.weights[single] = c.real * c.real + c.imag * c.imag
            self.columns.real[:, single] = v.real * c.real - v.imag * c.imag
            self.columns.imag[:, single] = v.real * c.imag + v.imag * c.real
        for l in np.flatnonzero(degeneracy != 1).tolist():
            vectors = np.ascontiguousarray(sd.vectors[:, sd.bounds[l]:sd.bounds[l + 1]])
            c = vectors.conj().T @ psi_d
            self.weights[l] = float(np.real(c.conj() @ c))
            self.columns[:, l] = vectors @ c

    def bright(self, dark_tol: float) -> np.ndarray:
        """Indices of the sectors that overlap the detection state."""
        return np.flatnonzero(self.weights > dark_tol)

    def bright_basis(self, dark_tol: float) -> np.ndarray:
        """Orthonormal basis (columns) of the bright space: each bright column
        divided by its norm.  Distinct sectors are orthogonal, and column ``l``
        has squared norm ``weights[l]``."""
        bright = self.bright(dark_tol)
        return self.columns[:, bright] / np.sqrt(self.weights[bright])

    def near_dark(self, dark_tol: float) -> float | None:
        """Largest weight dropped as dark that still exceeds ``dark_tol**2``;
        roundoff leaves truly dark sectors far below, so it may be bright."""
        w = self.weights[(self.weights > dark_tol**2) & (self.weights <= dark_tol)]
        return float(np.max(w)) if w.size else None

    def pdet_columns(self, initial_states: np.ndarray | None, *, dark_tol: float) -> _PdetColumns:
        """The detection probability of each column of ``initial_states``, from one
        matrix product: bright sector ``l`` contributes
        ``|<psi_d| P_l |psi_in>|^2 / <psi_d| P_l |psi_d>``.

        ``initial_states=None`` stands for every node: the amplitude of node
        ``r`` is entry ``r`` of ``P_l psi_d``, read without a product."""
        bright = self.bright(dark_tol)
        amps = self.columns[:, bright].conj().T
        if initial_states is not None:
            amps = amps @ initial_states
        contributions = np.abs(amps) ** 2 / self.weights[bright, None]
        return _PdetColumns(
            pdet=list(map(math.fsum, contributions.T.tolist())),
            contributions=contributions,
            bright=bright,
            dark_dim=self.sd.dim - bright.size,
            excluded_sectors=tuple(np.flatnonzero(self.weights <= dark_tol).tolist()),
        )


def _report(
    sd: SpectralDecomposition,
    detect_state: np.ndarray,
    initial_state: np.ndarray,
    dark_tol: float,
    discarded_weight: float = 0.0,
) -> DetectionReport:
    """The report of one initial state, from :meth:`_DetectorProjection.pdet_columns`."""
    cols = _DetectorProjection(sd, detect_state).pdet_columns(initial_state[:, None], dark_tol=dark_tol)
    return DetectionReport(
        pdet=cols.pdet[0],
        per_sector=tuple(zip(cols.bright.tolist(), cols.contributions[:, 0].tolist())),
        bright_dim=cols.bright.size,
        dark_dim=cols.dark_dim,
        excluded_sectors=cols.excluded_sectors,
        discarded_weight=discarded_weight,
    )


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
    return _report(sd, detect_state, as_state(initial_state, sd.dim), dark_tol)
