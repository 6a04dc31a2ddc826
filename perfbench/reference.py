"""Reference values computed apart from strobewalk.

Nothing here imports the program.  Graphs are rebuilt from their documented
node orderings, spectra come from ``scipy.linalg.eigh``, degenerate levels
and eigenphase sectors are grouped by this module's own tolerances, and the
group orders and detection tables of the paper's families are closed forms.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.linalg import eigh

TWO_PI = 2.0 * math.pi
#: Eigenvalues (or eigenphases) closer than this belong to one level (sector).
LEVEL_TOL = 1e-7
#: A sector whose squared overlap with the detector is below this is dark.
DARK_TOL = 1e-9


# --------------------------------------------------------------------------
# Graphs


def named_graph(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Node count and edge list of a generator spec such as ``tree:3``."""
    name, _, arg = spec.partition(":")
    if name == "ring":
        n = int(arg)
        return n, [(r, (r + 1) % n) for r in range(n)]
    if name == "complete":
        n = int(arg)
        return n, list(combinations(range(n), 2))
    if name == "hypercube":
        d = int(arg)
        n = 1 << d
        return n, [(v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b)]
    if name == "tree":
        g = int(arg)
        n = (1 << (g + 1)) - 1
        return n, [((c - 1) // 2, c) for c in range(1, n)]
    if name == "cross":
        m = int(arg)
        return m + 1, [(0, k) for k in range(1, m + 1)]
    if name == "square_center":
        return 5, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(k, 4) for k in range(4)]
    if name == "lattice":
        w, h = (int(x) for x in arg.split("x"))
        edges = set()
        for y in range(h):
            for x in range(w):
                v = y * w + x
                for u in (y * w + (x + 1) % w, ((y + 1) % h) * w + x):
                    edges.add((min(u, v), max(u, v)))
        return w * h, sorted(edges)
    raise ValueError(f"unknown graph spec {spec!r}")


def hamiltonian(n: int, edges, onsite=None) -> np.ndarray:
    """``-1`` on every edge, on-site energies on the diagonal."""
    h = np.zeros((n, n))
    for i, j in edges:
        h[i, j] = h[j, i] = -1.0
    if onsite is not None:
        h[np.diag_indices(n)] = onsite
    return h


# --------------------------------------------------------------------------
# Spectra


class Spectrum:
    """Eigenvalues (ascending) and eigenvectors of a real symmetric matrix."""

    def __init__(self, h: np.ndarray):
        self.values, self.vectors = eigh(h)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def levels(self) -> np.ndarray:
        """Distinct energies, one per degenerate level."""
        return np.array([self.values[g[0]] for g in group_sorted(self.values, LEVEL_TOL)])

    def sectors(self, tau: float) -> list[np.ndarray]:
        """Eigenvector indices grouped by eigenphase ``E * tau mod 2 pi``."""
        phases = np.mod(self.values * tau, TWO_PI)
        order = np.argsort(phases, kind="stable")
        groups = group_sorted(phases[order], LEVEL_TOL)
        if len(groups) > 1 and phases[order[groups[0][0]]] + TWO_PI - phases[order[groups[-1][-1]]] <= LEVEL_TOL:
            groups[0] = groups.pop() + groups[0]
        return [order[g] for g in groups]

    def detection(self, detect: np.ndarray, tau: float) -> tuple[np.ndarray, list[float]]:
        """Total detection probability of every localized initial state.

        Returns the vector ``pdet[r]`` and the energies of the bright
        sectors.  Each bright sector ``l`` contributes
        ``|<d|P_l|r>|^2 / <d|P_l|d>``.
        """
        pdet = np.zeros(self.dim)
        bright = []
        for idx in self.sectors(tau):
            v = self.vectors[:, idx]
            row = (detect.conj() @ v) @ v.conj().T  # <d|P_l|r> for every r
            weight = float(np.real(row @ detect))
            if weight > DARK_TOL:
                pdet += np.abs(row) ** 2 / weight
                bright.append(float(self.values[idx[0]]))
        return pdet, bright

    def pdet_state(self, detect: np.ndarray, psi: np.ndarray, tau: float) -> float:
        total = 0.0
        for idx in self.sectors(tau):
            v = self.vectors[:, idx]
            cd = v.conj().T @ detect
            weight = float(np.real(cd.conj() @ cd))
            if weight > DARK_TOL:
                total += abs(cd.conj() @ (v.conj().T @ psi)) ** 2 / weight
        return total

    def min_detector_weight(self, node: int) -> float:
        """Smallest squared amplitude of any eigenvector on ``node``."""
        return float(np.min(np.abs(self.vectors[node]) ** 2))

    def min_gap(self) -> float:
        return float(np.min(np.diff(self.values))) if self.dim > 1 else math.inf

    def resonance_margin(self, tau: float) -> float:
        """Distance of ``tau * |E_l - E_l'|`` from the nearest multiple of 2 pi."""
        lv = self.levels()
        gaps = np.abs(lv[:, None] - lv[None, :])[np.triu_indices(lv.shape[0], 1)]
        if gaps.size == 0:
            return math.pi
        ph = np.mod(gaps * tau, TWO_PI)
        return float(np.min(np.minimum(ph, TWO_PI - ph)))

    def evolution(self, tau: float) -> np.ndarray:
        v = self.vectors
        return (v * np.exp(-1j * self.values * tau)) @ v.conj().T

    def resonances(self, lo: float, hi: float) -> tuple[int, int]:
        """Count resonant periods in ``(lo, hi]``.

        Returns the number of ``(l, l', k)`` triples with
        ``tau = 2 pi k / |E_l - E_l'|`` in range, and the number of distinct
        periods once periods within ``1e-9 * max(1, tau)`` are merged.
        """
        lv = self.levels()
        taus = []
        for a in range(lv.shape[0]):
            base = TWO_PI / (lv[a + 1:] - lv[a])
            kmax = np.floor(hi * (1.0 + 1e-12) / base).astype(int)
            for b, km in zip(base, kmax):
                k = np.arange(1, km + 1)
                t = k * b
                taus.append(t[t > lo])
        allt = np.sort(np.concatenate(taus)) if taus else np.zeros(0)
        distinct = 0
        last = -math.inf
        for t in allt:
            if t - last > 1e-9 * max(1.0, t):
                distinct += 1
                last = t
        return int(allt.shape[0]), distinct


def group_sorted(keys: np.ndarray, tol: float) -> list[list[int]]:
    """Split ascending ``keys`` wherever consecutive entries differ by more than ``tol``."""
    groups: list[list[int]] = []
    for i in range(keys.shape[0]):
        if groups and keys[i] - keys[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def tail_steps(spec: Spectrum, detect: int, states: np.ndarray, tau: float, pdet: np.ndarray,
               rel: float, n_max: int, stride: int = 16) -> np.ndarray:
    """Protocol steps until the undetected, still detectable weight drops below ``rel * pdet``.

    ``states`` holds initial states as columns and ``pdet`` their exact
    detection probabilities.  One failed attempt maps a state by
    ``S = (1 - |d><d|) U``; the survival norm ``||S^n psi||^2`` never grows
    and tends to ``1 - pdet``.  The step count is the first multiple of
    ``stride`` where it is within ``rel * pdet`` of that limit, or
    ``n_max + 1`` when that takes longer.
    """
    s = spec.evolution(tau)
    s[detect, :] = 0.0
    jump = np.linalg.matrix_power(s, stride)
    psi = np.array(states, dtype=complex)
    limit = 1.0 - pdet + rel * pdet
    steps = np.full(psi.shape[1], n_max + 1)
    open_ = np.ones(psi.shape[1], dtype=bool)
    for n in range(stride, n_max + 1, stride):
        psi = jump @ psi
        norm = np.sum(psi.real**2 + psi.imag**2, axis=0)
        done = open_ & (norm <= limit)
        steps[done] = n
        open_ &= ~done
        if not open_.any():
            break
    return steps


# --------------------------------------------------------------------------
# Closed forms for the paper's families


def group_order(spec: str) -> int:
    name, _, arg = spec.partition(":")
    if name == "tree":
        return 2 ** (2 ** int(arg) - 1)
    if name == "hypercube":
        d = int(arg)
        return 2**d * math.factorial(d)
    if name in ("complete", "cross"):
        return math.factorial(int(arg))
    if name == "ring":
        return 2 * int(arg)
    if name == "square_center":
        return 8
    if name == "lattice":
        w, h = (int(x) for x in arg.split("x"))
        if w != h or w < 5:
            raise ValueError("closed form holds for square tori of side >= 5")
        return 8 * w * w
    raise ValueError(f"no closed form for {spec!r}")


def generation(v: int) -> int:
    """Generation of node ``v`` in the breadth-first numbered binary tree."""
    return (v + 1).bit_length() - 1


def node_orbit_size(spec: str, node: int) -> int:
    """Size of the orbit of ``node`` under the full automorphism group."""
    name = spec.partition(":")[0]
    if name == "tree":
        return 2 ** generation(node)
    if name == "cross":
        return 1 if node == 0 else int(spec.partition(":")[2])
    if name == "square_center":
        return 1 if node == 4 else 4
    return named_graph(spec)[0]  # vertex-transitive families


def stabilizer_order(spec: str, detect: int) -> int:
    """Order of the subgroup fixing the detector node (orbit-stabilizer)."""
    return group_order(spec) // node_orbit_size(spec, detect)


def table_pdet(spec: str, detect: int, init: int) -> float | None:
    """The paper's closed-form detection probabilities, where one applies.

    Binary tree detected at the root: ``2**-k`` in generation k.
    Hypercube: ``1 / C(d, k)`` at Hamming distance k from the detector.
    Star (cross) detected at the center: ``1/m`` on each of the m arms.
    """
    name, _, arg = spec.partition(":")
    if name == "tree" and detect == 0:
        return 2.0 ** -generation(init)
    if name == "hypercube":
        return 1.0 / math.comb(int(arg), bin(detect ^ init).count("1"))
    if name == "cross" and detect == 0:
        return 1.0 if init == 0 else 1.0 / int(arg)
    return None
