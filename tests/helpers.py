"""Shared cached builders and independent oracles for the test suite."""

import itertools
import json
import math
import operator
from dataclasses import replace
from functools import cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

import strobewalk as sw


def assert_same_text(got: str, want: str, what: str = "") -> None:
    """``assert got == want`` for long texts, reported by their lengths and first differing line.

    A failing ``==`` on reports of a megabyte or more makes pytest's assertion
    rewriting diff the whole texts, which can take minutes; this names the
    first difference in no time and checks no less.
    """
    if got == want:
        return
    lines, wanted = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((i for i, (a, b) in enumerate(zip(lines, wanted)) if a != b), min(len(lines), len(wanted)))
    raise AssertionError(
        f"{what}: texts differ: lengths {len(got)} and {len(want)}, {len(lines)} and {len(wanted)} lines; "
        f"first differing line {k + 1}: {lines[k:k + 1]!r} != {wanted[k:k + 1]!r}"
    )


@cache
def graph(spec: str) -> sw.WeightedGraph:
    return sw.build_named(spec)


@cache
def ham(spec: str, gamma: float = 1.0) -> np.ndarray:
    return sw.hamiltonian(graph(spec), gamma)


@cache
def eigensystem(spec: str) -> sw.EigenSystem:
    return sw.diagonalize(ham(spec))


@cache
def group(spec: str) -> sw.SymmetryGroup:
    return sw.automorphisms(graph(spec))


@cache
def node_stabilizer(spec: str, node: int) -> sw.StabilizerGroup:
    g = graph(spec)
    return sw.stabilizer(group(spec), sw.localized_state(g.node_count, node))


def sectors(spec: str, tau: float | None = None) -> sw.SpectralDecomposition:
    es = eigensystem(spec)
    return sw.energy_sectors(es) if tau is None else sw.fold_sectors(es, tau)


def sector_vectors(sd: sw.SpectralDecomposition, l: int) -> np.ndarray:
    """The eigenvector columns of sector ``l``, as a C-ordered copy."""
    return np.ascontiguousarray(sd.vectors[:, sd.bounds[l]:sd.bounds[l + 1]])


def sector_projectors(sd: sw.SpectralDecomposition) -> list[np.ndarray]:
    """The projector onto each sector, one matrix per sector."""
    vectors = [sector_vectors(sd, l) for l in range(len(sd.degeneracies))]
    return [v @ v.conj().T for v in vectors]


def basis(spec: str, node: int) -> np.ndarray:
    return sw.localized_state(graph(spec).node_count, node)


def ring_eigenstate(length: int, k: int) -> np.ndarray:
    """Free-wave eigenstate of the ring Hamiltonian with wavenumber k."""
    x = np.arange(length)
    return np.exp(1j * 2.0 * np.pi * k * x / length) / np.sqrt(length)


def expm_evolution(h: np.ndarray, tau: float) -> np.ndarray:
    """Independent evolution operator via scipy's matrix exponential."""
    return scipy.linalg.expm(-1j * tau * np.asarray(h, dtype=complex))


def protocol_amplitudes_expm(h, detect_state, initial_state, tau, n_max):
    """Reference protocol iteration built only on the matrix exponential."""
    u = expm_evolution(h, tau)
    psi = np.asarray(initial_state, dtype=complex).copy()
    amps = []
    for _ in range(n_max):
        psi = u @ psi
        amp = complex(np.vdot(detect_state, psi))
        amps.append(amp)
        psi = psi - amp * np.asarray(detect_state)
    return np.array(amps), psi


def oracle_amplitude_stream(u, detect_state, initial_state):
    """Step-by-step protocol: evolve one period, read off the amplitude on the
    detection state, remove that component.  Yields ``(amplitude, state)``
    with the undetected state after each attempt."""
    psi = np.asarray(initial_state, dtype=complex).copy()
    detect_conj = detect_state.conj()
    while True:
        psi = u @ psi
        amp = complex(detect_conj @ psi)
        psi -= amp * detect_state
        yield amp, psi


def oracle_pdet_series(setup: sw.DetectionSetup, rel_tol: float, n_cap: int):
    """Step-by-step series with the stop rule of ``pdet_series``, tested every
    32 attempts: the weight of the undetected state on the bright eigenstates
    of ``bright_eigenstates`` below ``rel_tol`` times the running sum, floored
    at 1e-12.  Returns ``(probabilities, stop)``."""
    sd = sw.fold_sectors(setup.eigensystem, setup.tau)
    bright = np.column_stack([b for _, b in sw.bright_eigenstates(sd, setup.detect_state)])
    stream = oracle_amplitude_stream(setup.unitary, setup.detect_state, setup.initial_state)
    terms: list[float] = []
    for n, (amp, psi) in zip(range(1, n_cap + 1), stream):
        terms.append(abs(amp) ** 2)
        if n % 32:
            continue
        rest = float(np.sum(np.abs(bright.conj().T @ psi) ** 2))
        if rest < rel_tol * max(math.fsum(terms), 1e-12):
            return np.array(terms), "bright-survival"
    return np.array(terms), "cap"


def window_by_window_series(setup: sw.DetectionSetup, rel_tol: float, n_cap: int):
    """The protocol series window by window: one matrix product and one test
    of the stop rule per window of 32 attempts.  ``pdet_series``, which
    tests a block of windows at once, must give this ``SeriesResult`` bit
    for bit."""
    window = sw.detection.SERIES_WINDOW

    def protocol_windows():
        psi = setup.initial_state.astype(complex)
        while True:
            out = setup.window_operator @ psi
            psi = out[window:]
            yield out[:window], psi

    full, rest = divmod(max(n_cap, 0), window)
    windows = protocol_windows()
    q_h = setup.bright_basis.conj().T
    blocks: list[np.ndarray] = []
    total = 0.0
    for amps, psi in itertools.islice(windows, full):
        blocks.append(np.abs(amps) ** 2)
        total += float(np.sum(blocks[-1]))
        bright = q_h @ psi
        if float(np.vdot(bright, bright).real) < rel_tol * max(total, sw.detection.DARK_OVERLAP_TOL):
            stop = "bright-survival"
            break
    else:
        stop = "cap"
        if rest:
            blocks.append(np.abs(next(windows)[0][:rest]) ** 2)
    probabilities = np.concatenate(blocks) if blocks else np.zeros(0)
    return sw.SeriesResult(
        estimate=math.fsum(probabilities),
        converged=stop != "cap",
        stop=stop,
        probabilities=probabilities,
    )


def edge_graph(n: int, edges, onsite=None, labels=None) -> sw.WeightedGraph:
    """A graph from ``(i, j, w)`` triples, whose three columns go to the constructor; on-site energies default to 0."""
    tails, heads, weights = zip(*edges) if len(edges) else ((), (), ())
    return sw.WeightedGraph(n, tails, heads, weights, (0.0,) * n if onsite is None else onsite, labels)


def edge_triples(g: sw.WeightedGraph) -> list[tuple[int, int, float]]:
    """A graph's edges as ``(i, j, w)`` triples of Python numbers, in edge order."""
    return list(zip(g.tails.tolist(), g.heads.tolist(), g.weights.tolist()))


class OracleGraph(NamedTuple):
    """A graph as ``WeightedGraph`` held it before it held arrays: tuples of Python numbers."""

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    onsite: tuple[float, ...]
    labels: tuple[str, ...] | None = None


def _oracle_index(value, what: str) -> int:
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise sw.GraphInvariantError(f"{what} must be an integer, got {value!r}")


def oracle_graph(node_count, edges, onsite, labels=None) -> OracleGraph:
    """The edge-by-edge checks and normalization of the tuple-based ``WeightedGraph``:
    a reference for the arrays, and for the error and message of each bad input."""
    n = _oracle_index(node_count, "node_count")
    if n < 1:
        raise sw.GraphInvariantError(f"node_count must be positive, got {n}")
    normalized = []
    seen: set[tuple[int, int]] = set()
    for k, edge in enumerate(edges):
        if len(edge) != 3:
            raise sw.GraphInvariantError(f"edges[{k}]: expected (i, j, w), got {edge!r}")
        i, j, w = edge
        if type(i) is not int or type(j) is not int:
            i, j = _oracle_index(i, f"edges[{k}]: node index"), _oracle_index(j, f"edges[{k}]: node index")
        if not (0 <= i < n and 0 <= j < n):
            raise sw.GraphInvariantError(f"edges[{k}]: node index out of range for {n} nodes: ({i}, {j})")
        if i == j:
            raise sw.GraphInvariantError(f"edges[{k}]: self-loop ({i}, {j}) is not allowed")
        w = float(w)
        if not math.isfinite(w):
            raise sw.GraphInvariantError(f"edges[{k}]: weight must be finite, got {w}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise sw.GraphInvariantError(f"edges[{k}]: duplicate edge {pair}")
        seen.add(pair)
        normalized.append((*pair, w))
    if len(onsite) != n:
        raise sw.GraphInvariantError(f"onsite has length {len(onsite)}, expected {n}")
    onsite = tuple(float(e) for e in onsite)
    if any(not math.isfinite(e) for e in onsite):
        raise sw.GraphInvariantError("onsite energies must be finite")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise sw.GraphInvariantError(f"labels has length {len(labels)}, expected {n}")
    return OracleGraph(n, tuple(normalized), onsite, labels)


def oracle_hamiltonian(g: OracleGraph, gamma: float) -> np.ndarray:
    """The edge-by-edge Hamiltonian: ``-gamma * w`` into both triangles, on-site energies on the diagonal."""
    h = np.zeros((g.node_count, g.node_count))
    for i, j, w in g.edges:
        h[i, j] = -gamma * w
        h[j, i] = -gamma * w
    for i, e in enumerate(g.onsite):
        h[i, i] = e
    return h


def oracle_save_graph(g: OracleGraph) -> bytes:
    """The graph file that ``save_graph`` wrote from the tuples."""
    labels = {} if g.labels is None else {"labels": list(g.labels)}
    doc = {"nodes": g.node_count, "edges": [[i, j, w] for i, j, w in g.edges], "onsite": list(g.onsite), **labels}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def random_hermitian(rng: np.random.Generator, dim: int, complex_entries: bool = True) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    if complex_entries:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_graph(rng: np.random.Generator, max_nodes: int = 10) -> sw.WeightedGraph:
    n = int(rng.integers(3, max_nodes + 1))
    p = rng.uniform(0.3, 0.9)
    edges = [
        (i, j, 1.0)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return edge_graph(n, edges)


def unit_graph(n: int, pairs) -> sw.WeightedGraph:
    """Unit-weight graph on ``n`` nodes from unordered node pairs, duplicates dropped."""
    edges = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    return edge_graph(n, [(i, j, 1.0) for i, j in edges])


def petersen() -> sw.WeightedGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9 (5+i ~ 5+(i+2) mod 5), spokes i ~ 5+i."""
    return unit_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, 5 + i) for i in range(5)])


def shrikhande() -> sw.WeightedGraph:
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1); node (a, b) is 4a + b."""
    steps = [(1, 0), (0, 1), (1, 1)]
    return unit_graph(16, [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                           for a in range(4) for b in range(4) for da, db in steps])


def rook(k: int) -> sw.WeightedGraph:
    """k x k rook's graph: node (r, c) is k r + c, linked to every node in its row and column."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    return unit_graph(k * k, [(k * r + c, k * s + d) for (r, c) in cells for (s, d) in cells
                              if (r == s) != (c == d)])


def frucht() -> sw.WeightedGraph:
    """12-cycle with the chords of LCF notation [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return unit_graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + s) % 12) for i, s in enumerate(lcf)])


def relabeled(g: sw.WeightedGraph, perm: np.ndarray) -> sw.WeightedGraph:
    """The same graph with node ``r`` renamed ``perm[r]``, on-site energies carried along."""
    onsite = [0.0] * g.node_count
    for r, e in enumerate(g.onsite.tolist()):
        onsite[perm[r]] = e
    edges = [(int(perm[i]), int(perm[j]), w) for i, j, w in edge_triples(g)]
    return edge_graph(g.node_count, edges, onsite)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def compose(a, b) -> tuple[int, ...]:
    """The image tuple of applying ``b`` first, then ``a``: ``r -> a[b[r]]``."""
    return tuple(np.asarray(a)[np.asarray(b)].tolist())


def inverse(image) -> tuple[int, ...]:
    return tuple(np.argsort(image).tolist())


def apply(image, state: np.ndarray) -> np.ndarray:
    """``S psi`` for the permutation ``r -> image[r]``: ``(S psi)[image[r]] = psi[r]``."""
    out = np.empty_like(np.asarray(state))
    out[np.asarray(image)] = state
    return out


def matrix(image) -> np.ndarray:
    """The permutation matrix with ``m[image[r], r] = 1``, so that ``matrix(image) @ psi == apply(image, psi)``."""
    n = len(image)
    m = np.zeros((n, n))
    m[np.asarray(image), np.arange(n)] = 1.0
    return m


def brute_force_automorphisms(g: sw.WeightedGraph) -> list[tuple[int, ...]]:
    """The image tuples of all n! permutations that survive the filter; test oracle for graphs of at most 8 nodes."""
    if g.node_count > 8:
        raise ValueError("brute force is limited to 8 nodes")
    adj = [dict() for _ in range(g.node_count)]
    for i, j, w in edge_triples(g):
        adj[i][j] = w
        adj[j][i] = w
    out = []
    for perm in itertools.permutations(range(g.node_count)):
        if any(g.onsite[perm[v]] != g.onsite[v] for v in range(g.node_count)):
            continue
        if all({perm[u]: w for u, w in nbrs.items()} == adj[perm[v]] for v, nbrs in enumerate(adj)):
            out.append(perm)
    return out


def brute_force_stabilizer(images: list[tuple[int, ...]], node: int) -> list[tuple[int, ...]]:
    """The elements of an explicit element list that fix ``node``."""
    return [img for img in images if img[node] == node]


def brute_force_orbits(images: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Node orbits under an explicit element list, ordered by least member."""
    orbits = {tuple(sorted({img[v] for img in images})) for v in range(n)}
    return sorted(orbits)


#: Largest group that ``close_group`` lists element by element.
ORDER_CAP = 10**6


def close_group(group: sw.SymmetryGroup | sw.StabilizerGroup) -> list[tuple[tuple[int, ...], complex]]:
    """Every element's image tuple with its phase, closed from the generators
    and sorted by image tuple; test oracle for groups of at most ``ORDER_CAP``.

    Automorphisms carry phase 1.  The phase of a product is the product of
    the phases, since ``S T psi_d = p_T S psi_d = p_S p_T psi_d``.
    """
    if group.order > ORDER_CAP:
        raise ValueError(f"group order {group.order} is above the cap of {ORDER_CAP} for listing elements")
    if isinstance(group, sw.SymmetryGroup):
        generators = [(img, 1.0 + 0j) for img in group.generators.tolist()]
    else:
        generators = list(zip(group.images.tolist(), group.phases.tolist()))
    known = {tuple(range(group.dim)): 1.0 + 0j}
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for g, phase_g in generators:
                prod = tuple(g[i] for i in a)
                if prod not in known:
                    phase = phase_g * known[a]
                    known[prod] = phase / abs(phase)
                    fresh.append(prod)
        frontier = fresh
    assert len(known) == group.order, (len(known), group.order)
    return [(img, complex(phase)) for img, phase in sorted(known.items())]


def group_elements(group: sw.SymmetryGroup | sw.StabilizerGroup) -> list[tuple[int, ...]]:
    """The image tuples of ``close_group``, without their phases."""
    return [img for img, _ in close_group(group)]


def assert_search_matches_brute_force(g: sw.WeightedGraph) -> None:
    """Group order, and per detector node the stabilizer order, node orbits
    and the orbit-stabilizer identity ``|G| = |orbit(d)| * |G_d|``.

    Each stabilizer is checked three ways: searched on its own, taken from
    the chain of a group searched with ``d`` first in its base, and from a
    group searched with another node first, which falls back to a search."""
    n = g.node_count
    brute = brute_force_automorphisms(g)
    group = sw.automorphisms(g)
    assert group.order == len(brute)
    shared = [sw.automorphisms(g, base_point=d) for d in range(n)]
    for d in range(n):
        expected = brute_force_stabilizer(brute, d)
        detector = sw.localized_state(n, d)
        assert shared[d].order == group.order, d
        from_chain = sw.stabilizer(shared[d], detector)
        count = len(from_chain.images)
        np.testing.assert_array_equal(from_chain.images, shared[d].generators[:count], err_msg=str(d))
        fallback = sw.stabilizer(shared[(d + 1) % n], detector)
        for stab in (sw.stabilizer(group, detector), from_chain, fallback):
            assert stab.order == len(expected), d
            assert sw.node_orbits(stab) == brute_force_orbits(expected, n), d
            assert np.all(stab.images[:, d] == d) and np.all(stab.phases == 1.0), d
            assert group.order == len({img[d] for img in brute}) * stab.order, d


def oracle_quotient_graph(q: sw.QuotientSystem) -> sw.WeightedGraph:
    """Nested-loop quotient graph over every class pair ``a < b``: a reference for ``quotient_graph``."""
    k = q.reduced_dim
    edges = []
    for a in range(k):
        for b in range(a + 1, k):
            w = float(np.real(q.h_s[a, b]))
            if w != 0.0:
                edges.append((a, b, -w))
    onsite = tuple(float(np.real(q.h_s[c, c])) for c in range(k))
    labels = tuple(",".join(str(m) for m in cls.members) for cls in q.classes)
    return edge_graph(k, edges, onsite, labels)


def disordered(spec: str, seed: int, symmetric_about: int | None = None) -> sw.WeightedGraph:
    """A named graph with on-site energies uniform in [-0.5, 0.5] from ``default_rng(seed)``.

    With ``symmetric_about=d`` on a ring, node ``r`` takes the energy of its
    mirror ``2d - r``, so the reflection through ``d`` stays a symmetry.
    """
    g = graph(spec)
    onsite = np.random.default_rng(seed).uniform(-0.5, 0.5, g.node_count)
    if symmetric_about is not None:
        mirror = (2 * symmetric_about - np.arange(g.node_count)) % g.node_count
        onsite = np.minimum(onsite, onsite[mirror])
    return replace(g, onsite=onsite)


def _oracle_levels(es: sw.EigenSystem) -> np.ndarray:
    """Lowest energy of each level; a level starts where the step from the
    previous eigenvalue exceeds 1e-8 * max(1, max|E|)."""
    ev = es.eigenvalues
    tol = 1e-8 * max(1.0, float(np.max(np.abs(ev))))
    levels = [ev[0]]
    for prev, e in zip(ev, ev[1:]):
        if e - prev > tol:
            levels.append(e)
    return np.array(levels)


class Resonance(NamedTuple):
    """One entry of a resonance listing: its period and its ``(l, l', k)`` pairs."""

    tau: float
    pairs: tuple[tuple[int, int, int], ...]


def resonance_entries(listing: sw.ResonanceListing) -> list[Resonance]:
    """A listing's columns as the oracle's entries: each period with every ``(l, l', k)`` of it."""
    triples = list(zip(listing.l0.tolist(), listing.l1.tolist(), listing.k.tolist()))
    bounds = [*listing.starts.tolist(), len(triples)]
    return [Resonance(tau, tuple(triples[a:b])) for tau, a, b in zip(listing.taus.tolist(), bounds, bounds[1:])]


def oracle_resonant_periods(es: sw.EigenSystem, tau_max: float) -> list[Resonance]:
    """Nested-loop resonant periods over the levels of ``energy_sectors``."""
    levels = _oracle_levels(es)
    hits = []
    for l0 in range(levels.shape[0]):
        for l1 in range(l0 + 1, levels.shape[0]):
            base = 2.0 * math.pi / abs(levels[l1] - levels[l0])
            k = 1
            while k * base <= tau_max * (1.0 + 1e-12):
                hits.append((k * base, (l0, l1, k)))
                k += 1
    hits.sort(key=lambda t: t[0])
    merged: list[Resonance] = []
    for tau_c, pair in hits:
        if merged and abs(tau_c - merged[-1].tau) <= 1e-9 * max(1.0, tau_c):
            merged[-1] = Resonance(tau=merged[-1].tau, pairs=merged[-1].pairs + (pair,))
        else:
            merged.append(Resonance(tau=tau_c, pairs=(pair,)))
    return merged


def oracle_is_resonant(es: sw.EigenSystem, tau: float, tol: float) -> bool:
    """Pair-by-pair resonance test: whether phases within ``tol`` of each other link two levels.

    The phases ``E * tau mod 2 pi`` chain as ``fold_sectors`` folds them: two
    eigenvalues are linked when a chain of steps, each within ``tol`` on the
    circle, leads from one to the other.  Levels are those of
    ``energy_sectors``: a level starts where the step from the previous
    eigenvalue exceeds 1e-8 * max(1, max|E|).
    """
    two_pi = 2.0 * math.pi
    ev = es.eigenvalues.tolist()
    energy_tol = 1e-8 * max(1.0, max(map(abs, ev), default=0.0))
    level = [0]
    for prev, e in zip(ev, ev[1:]):
        level.append(level[-1] + (e - prev > energy_tol))
    phases = [e * tau % two_pi for e in ev]
    # Every eigenvalue takes the least label of those linked to it, pair by pair, until none changes.
    label = list(range(len(ev)))
    changed = True
    while changed:
        changed = False
        for i in range(len(ev)):
            for j in range(len(ev)):
                gap = abs(phases[i] - phases[j])
                if min(gap, two_pi - gap) <= tol and label[j] > label[i]:
                    label[j], changed = label[i], True
    return any(label[i] == label[j] and level[i] != level[j] for i in range(len(ev)) for j in range(i))


def _oracle_groups(keys: np.ndarray, tol: float) -> list[list[int]]:
    """Cluster ascending keys: break wherever the gap exceeds tol."""
    bounds = [0, *(np.flatnonzero(np.diff(keys) > tol) + 1).tolist(), keys.shape[0]]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:]) if b > a]


def oracle_fold_sectors(es: sw.EigenSystem, tau: float, phase_tol: float = 1e-8) -> sw.SpectralDecomposition:
    """Phase folding group by group: a reference for ``fold_sectors``, bit for bit.

    Groups the (phase, energy)-sorted levels by phase gaps, warns on gaps
    below 100 ``phase_tol``, joins the last group to the first across the
    seam, joins any two groups that share an energy level (a step of at
    most 1e-8 * max(1, max|E|) between ascending eigenvalues), then builds
    each sector from its own indices, sorted by energy, and puts the
    sectors side by side in phase order.
    """
    two_pi = 2.0 * math.pi
    ev = es.eigenvalues
    phases = np.mod(ev * tau, two_pi)
    order = np.lexsort((ev, phases))
    sorted_phases = phases[order]
    groups = _oracle_groups(sorted_phases, phase_tol)
    warnings = []
    for g0, g1 in zip(groups, groups[1:]):
        gap = float(sorted_phases[g1[0]] - sorted_phases[g0[-1]])
        if gap < 100.0 * phase_tol:
            warnings.append(
                f"near-degenerate phase gap {gap:.3e} between groups at "
                f"{float(sorted_phases[g0[-1]]):.12g} and {float(sorted_phases[g1[0]]):.12g}"
            )
    if len(groups) > 1:
        seam_gap = (sorted_phases[groups[0][0]] + two_pi) - sorted_phases[groups[-1][-1]]
        if seam_gap <= phase_tol:
            groups[0] = groups.pop() + groups[0]
        elif seam_gap < 100.0 * phase_tol:
            warnings.append(f"near-degenerate phase gap {seam_gap:.3e} across the 0/2pi seam")
    level_tol = 1e-8 * max(1.0, float(np.max(np.abs(ev)))) if ev.size else 0.0
    level_of = [0]
    for prev, e in zip(ev, ev[1:]):
        level_of.append(level_of[-1] + (e - prev > level_tol))
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if {level_of[i] for i in order[groups[a]]} & {level_of[i] for i in order[groups[b]]}:
                groups[a] += groups.pop(b)
                merged = True
                break
    sectors = []
    for g in groups:
        idx = order[g]
        idx = idx[np.argsort(ev[idx], kind="stable")]
        phase = float(np.min(np.mod(ev[idx] * tau, two_pi)))
        sectors.append((phase, idx))
    sectors.sort(key=lambda sector: sector[0])
    levels = np.concatenate([idx for _, idx in sectors]) if sectors else np.zeros(0, dtype=np.intp)
    bounds = np.cumsum([0, *(idx.size for _, idx in sectors)])
    return sw.SpectralDecomposition(
        energies=ev[levels], vectors=es.eigenvectors[:, levels], bounds=bounds,
        phases=np.array([phase for phase, _ in sectors]), tau=float(tau), warnings=tuple(warnings))
