"""State-vector helpers: construction and validation."""

from __future__ import annotations

import numpy as np

from .errors import StateError

__all__ = [
    "as_state",
    "localized_node",
    "localized_state",
    "uniform_state",
    "NORM_TOL",
]

NORM_TOL = 1e-12


def as_state(vec, dim: int | None = None) -> np.ndarray:
    """Coerce to a complex 1-d array and validate dimension and norm."""
    psi = np.asarray(vec, dtype=complex)
    if psi.ndim != 1:
        raise StateError(f"state must be a 1-d vector, got shape {psi.shape}")
    if dim is not None and psi.shape[0] != dim:
        raise StateError(f"state has dimension {psi.shape[0]}, expected {dim}")
    norm = np.linalg.norm(psi)
    # ``not <=``: a NaN norm, from a NaN entry, fails the check.
    if not abs(norm - 1.0) <= NORM_TOL:
        raise StateError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return psi


def localized_state(dim: int, node: int) -> np.ndarray:
    """Basis state concentrated on a single node."""
    if not 0 <= node < dim:
        raise StateError(f"node {node} out of range for dimension {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[node] = 1.0
    return psi


def uniform_state(dim: int, nodes) -> np.ndarray:
    """Equal-amplitude superposition over the given nodes."""
    nodes = list(nodes)
    if not nodes:
        raise StateError("need at least one node")
    psi = np.zeros(dim, dtype=complex)
    psi[nodes] = 1.0 / np.sqrt(len(nodes))
    return psi


def localized_node(psi: np.ndarray, tol: float = 1e-12) -> int | None:
    """Index of the single node carrying the state, or None if delocalized.

    A state counts as localized when exactly one amplitude has modulus 1
    within ``tol`` (up to a global phase).
    """
    mags = np.abs(psi)
    big = np.flatnonzero(mags > tol)
    if big.size == 1 and abs(mags[big[0]] - 1.0) <= tol:
        return int(big[0])
    return None
