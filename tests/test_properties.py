"""Property-based checks of the algebraic identities behind the pipeline."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strobewalk as sw
from strobewalk import detection

import helpers

TWO_PI = 2.0 * math.pi


def normalized_states(dim):
    def build(parts):
        vec = np.array([complex(re, im) for re, im in parts])
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            vec = vec + 1.0
            norm = np.linalg.norm(vec)
        return vec / norm

    coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return st.lists(st.tuples(coord, coord), min_size=dim, max_size=dim).map(build)


@given(normalized_states(6), normalized_states(6),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_amplitudes_are_linear_in_the_initial_state(psi_a, psi_b, alpha, beta):
    h = helpers.ham("ring:6")
    psi_d = helpers.basis("ring:6", 0)
    combo = alpha * psi_a + beta * psi_b
    norm = np.linalg.norm(combo)
    if norm < 1e-6:
        return
    amps = {}
    for key, state in (("a", psi_a), ("b", psi_b), ("c", combo / norm)):
        setup = sw.DetectionSetup(hamiltonian=h, detect_state=psi_d, initial_state=state, tau=0.9)
        amps[key] = sw.first_detection_amplitudes(setup, 15)
    np.testing.assert_allclose(
        amps["c"] * norm, alpha * amps["a"] + beta * amps["b"], atol=1e-10
    )


@given(st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False))
def test_interference_law_for_an_equivalent_pair(alpha):
    # sites 1 and 7 of ring:8 are mirror partners around the detector at 0
    h = helpers.ham("ring:8")
    psi_d = helpers.basis("ring:8", 0)
    base = sw.first_detection_amplitudes(
        sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                          initial_state=helpers.basis("ring:8", 1), tau=0.9), 20)
    mix = np.zeros(8, dtype=complex)
    mix[1] = 1.0 / math.sqrt(2.0)
    mix[7] = np.exp(1j * alpha) / math.sqrt(2.0)
    mixed = sw.first_detection_amplitudes(
        sw.DetectionSetup(hamiltonian=h, detect_state=psi_d, initial_state=mix, tau=0.9), 20)
    np.testing.assert_allclose(
        np.abs(mixed) ** 2, (1.0 + math.cos(alpha)) * np.abs(base) ** 2, atol=1e-10
    )


@given(normalized_states(7))
def test_pdet_is_the_squared_bright_overlap(psi_in):
    sd = helpers.sectors("tree:2", 0.7)
    psi_d = helpers.basis("tree:2", 3)
    bright = np.column_stack([b for _, b in sw.bright_eigenstates(sd, psi_d)])
    overlap = float(np.sum(np.abs(bright.conj().T @ psi_in) ** 2))
    rep = sw.pdet_spectral(sd, psi_d, psi_in)
    assert rep.pdet == pytest.approx(overlap, abs=1e-10)
    assert rep.pdet <= 1.0 + 1e-12


@given(normalized_states(5))
def test_detection_probability_factorizes_through_the_symmetric_part(psi_in):
    sd = helpers.sectors("cross:4", 1.1)
    psi_d = helpers.basis("cross:4", 0)
    stab = helpers.node_stabilizer("cross:4", 0)
    full = sw.pdet_spectral(sd, psi_d, psi_in).pdet
    try:
        u, weight = sw.symmetric_part(stab, psi_in)
    except sw.AsymmetricStateError:
        assert full == pytest.approx(0.0, abs=1e-10)
        return
    reduced = sw.pdet_spectral(sd, psi_d, u).pdet
    assert full == pytest.approx(weight * reduced, abs=1e-8)


@given(normalized_states(8))
def test_bound_dominates_for_arbitrary_initial_states(psi_in):
    sd = helpers.sectors("ring:8", 0.9)
    psi_d = helpers.basis("ring:8", 0)
    stab = helpers.node_stabilizer("ring:8", 0)
    assert sw.pdet_spectral(sd, psi_d, psi_in).pdet <= sw.upper_bound(stab, psi_in) + 1e-10


@given(st.integers(min_value=0, max_value=199))
def test_random_hermitian_eigendecomposition_invariants(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    h = helpers.random_hermitian(rng, dim, complex_entries=bool(rng.integers(2)))
    es = sw.diagonalize(h)
    scale = max(np.max(np.abs(es.eigenvalues)), 1e-300)
    assert np.max(np.abs(h @ es.eigenvectors - es.eigenvectors * es.eigenvalues)) <= 1e-10 * scale
    assert np.all(np.diff(es.eigenvalues) >= 0)
    sd = sw.energy_sectors(es)
    total = sum(helpers.sector_projectors(sd))
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)


@given(st.integers(min_value=0, max_value=99), st.booleans())
def test_random_graph_group_axioms_and_commutation(seed, decorate):
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, max_nodes=7)
    n = g.node_count
    if decorate:
        # heavier links and raised nodes break some of the symmetry
        g = helpers.edge_graph(
            n,
            [(i, j, float(rng.choice([1.0, 2.0]))) for i, j, _ in helpers.edge_triples(g)],
            onsite=tuple(float(rng.choice([0.0, 0.0, 1.0])) for _ in range(n)),
        )
    h = sw.hamiltonian(g, 1.0)
    group = sw.automorphisms(g)
    elements = helpers.group_elements(group)
    images = set(elements)
    assert tuple(range(n)) in images
    for p in elements:
        assert helpers.inverse(p) in images
        m = helpers.matrix(p)
        assert np.max(np.abs(m @ h - h @ m)) < 1e-10
    helpers.assert_search_matches_brute_force(g)


@given(st.sampled_from(["lattice:6x6", "hypercube:5", "ring:32", "tree:4", "random"]),
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_relabeling_keeps_the_orders_and_carries_the_orbits(source, seed, data):
    # any step of the search that keyed on node ids would tie its result to the labeling
    rng = np.random.default_rng(seed)
    if source == "random":
        g = helpers.random_graph(rng, max_nodes=12)
        g = replace(g, onsite=tuple(float(rng.choice([0.0, 0.0, 1.0])) for _ in range(g.node_count)))
    else:
        g = helpers.graph(source)
    n = g.node_count
    pi = rng.permutation(n)
    d = data.draw(st.integers(min_value=0, max_value=n - 1))
    moved = helpers.relabeled(g, pi)
    group, moved_group = sw.automorphisms(g), sw.automorphisms(moved)
    assert moved_group.order == group.order
    stab = sw.stabilizer(group, sw.localized_state(n, d))
    carried = {tuple(sorted(pi[list(orbit)].tolist())) for orbit in sw.node_orbits(stab)}
    detector = sw.localized_state(n, int(pi[d]))
    for moved_stab in (sw.stabilizer(moved_group, detector),
                       sw.stabilizer(sw.automorphisms(moved, base_point=int(pi[d])), detector)):
        assert moved_stab.order == stab.order
        assert set(sw.node_orbits(moved_stab)) == carried


def _level_eigensystem(levels) -> sw.EigenSystem:
    ev = np.sort(np.asarray(levels, dtype=float))
    return sw.EigenSystem(eigenvalues=ev, eigenvectors=np.eye(ev.shape[0], dtype=complex))


def _disordered_eigensystem(args) -> sw.EigenSystem:
    spec, seed, strength = args
    g = helpers.graph(spec)
    onsite = np.random.default_rng(seed).uniform(-strength, strength, g.node_count)
    return sw.diagonalize(sw.hamiltonian(replace(g, onsite=onsite), 1.0))


eigensystems = st.one_of(
    # random levels, possibly closer than the grouping tolerance
    st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False), min_size=1, max_size=10)
    .map(_level_eigensystem),
    # degenerate levels on a half-integer grid, repeated up to three times
    st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), min_size=1, max_size=6)
    .map(lambda items: _level_eigensystem([k / 2 for k, m in items for _ in range(m)])),
    # equal gaps detuned by delta: periods that nearly coincide, merged or not
    st.tuples(st.floats(min_value=0.3, max_value=3.0), st.sampled_from([1e-12, 1e-10, 5e-10, 3e-9, 1e-8]))
    .map(lambda args: _level_eigensystem([0.0, args[0], args[0] * (2.0 + args[1])])),
    # named graphs, clean (degenerate) or with seeded on-site disorder
    st.tuples(st.sampled_from(["ring:8", "tree:2", "cross:4", "hypercube:3", "lattice:3x3", "complete:5"]),
              st.integers(0, 1000), st.sampled_from([0.0, 0.3, 1.0])).map(_disordered_eigensystem),
)


@given(eigensystems, st.data())
def test_resonance_search_matches_the_nested_loop_oracle(es, data):
    periods = helpers.oracle_resonant_periods(es, 12.0)
    assert helpers.resonance_entries(sw.resonant_periods(es, 12.0)) == periods
    taus = [data.draw(st.floats(min_value=0.01, max_value=12.0))]
    if periods:
        # at a resonance, and detuned so that the phase of its first pair misses by
        # a multiple of the tolerance, on either side of it
        at = data.draw(st.sampled_from(periods))
        k = at.pairs[0][2]
        taus += [at.tau * (1.0 + c * tol / (TWO_PI * k))
                 for tol in (sw.spectral.PHASE_GROUP_TOL, 1e-6) for c in (0.0, 0.5, -0.99, 1.01, -2.0, 10.0)]
    for tau in taus:
        for tol in (sw.spectral.PHASE_GROUP_TOL, 1e-6):
            sd = sw.fold_sectors(es, tau, phase_tol=tol)
            assert sw.is_resonant(sd) == helpers.oracle_is_resonant(es, tau, tol), (tau, tol)


PHASE_TOL = sw.spectral.PHASE_GROUP_TOL
#: Offsets from a phase anchor, in units of the phase tolerance: within it, in
#: the warning band from 1 to 100 times it, and beyond.
PHASE_STEPS = (0.0, 0.4, 0.9, 1.5, 3.0, 40.0, 99.0, 150.0, 1e4)


def _phase_eigensystem(tau, levels, seed=0) -> sw.EigenSystem:
    """Levels given as ``(phase, wraps, copies)``: the energy ``(phase + 2 pi wraps) / tau``,
    ``copies`` times over (exactly degenerate), with random orthonormal vectors."""
    ev = np.sort([(phase + TWO_PI * wraps) / tau for phase, wraps, copies in levels for _ in range(copies)])
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(ev.size, ev.size)) + 1j * rng.normal(size=(ev.size, ev.size)))
    return sw.EigenSystem(eigenvalues=ev, eigenvectors=q)


@st.composite
def folding_spectra(draw):
    """Phases clustered around a few anchors, the 0/2pi seam among them: exactly
    degenerate levels, distinct levels at one phase (a resonance), gaps that warn."""
    tau = draw(st.floats(min_value=0.25, max_value=4.0))
    anchors = draw(st.lists(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
                            min_size=1, max_size=3))
    if draw(st.booleans()):
        anchors += [0.0, TWO_PI]
    levels = [
        (draw(st.sampled_from(anchors)) + draw(st.sampled_from([-1.0, 1.0]))
         * draw(st.sampled_from(PHASE_STEPS)) * PHASE_TOL,
         draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return _phase_eigensystem(tau, levels, draw(st.integers(0, 2**32 - 1))), tau


#: Named cases that the drawn spectra must also cover, each a (tau, levels) pair.
FOLDING_CASES = {
    "one-level": (1.0, [(0.5, 0, 1)]),
    "two-level": (1.3, [(0.5, 0, 1), (2.0, 1, 1)]),
    "degenerate": (1.0, [(1.0, 0, 3), (2.0, 0, 2)]),
    "warning-gaps": (1.0, [(1.0, 0, 1), (1.0 + 5 * PHASE_TOL, 0, 2), (1.0 + 65 * PHASE_TOL, 1, 1)]),
    "seam-merge": (0.9, [(TWO_PI - 0.8 * PHASE_TOL, 0, 1), (TWO_PI - 0.3 * PHASE_TOL, 1, 1),
                         (0.2 * PHASE_TOL, 0, 2), (3.0, 0, 1)]),
    "seam-warning": (0.9, [(TWO_PI - 20 * PHASE_TOL, 0, 1), (20 * PHASE_TOL, 0, 1), (3.0, 0, 1)]),
    "resonance": (1.0, [(1.0, 0, 1), (1.0, 1, 1), (1.0, -1, 2), (4.0, 0, 1)]),
}


def _assert_same_sectors(got: sw.SpectralDecomposition, want: sw.SpectralDecomposition) -> None:
    assert got.tau == want.tau
    assert got.warnings == want.warnings
    assert got.bounds.tolist() == want.bounds.tolist()
    assert got.phases.dtype == np.float64 and got.phases.tobytes() == want.phases.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.vectors.shape == want.vectors.shape and got.vectors.tobytes() == want.vectors.tobytes()
    for l in range(len(got.degeneracies)):
        # products over a sector's vectors sum in an order that depends on the layout:
        # the detector projection takes each degenerate sector as a C-ordered block
        block = helpers.sector_vectors(got, l)
        assert block.flags.c_contiguous and block.tobytes() == helpers.sector_vectors(want, l).tobytes()


@given(folding_spectra())
@settings(max_examples=300)
def test_fold_sectors_matches_the_group_by_group_oracle_bit_for_bit(case):
    es, tau = case
    _assert_same_sectors(sw.fold_sectors(es, tau), helpers.oracle_fold_sectors(es, tau))


@pytest.mark.parametrize("name", FOLDING_CASES)
def test_fold_sectors_matches_the_oracle_on_the_named_cases(name):
    tau, levels = FOLDING_CASES[name]
    es = _phase_eigensystem(tau, levels)
    sd = sw.fold_sectors(es, tau)
    _assert_same_sectors(sd, helpers.oracle_fold_sectors(es, tau))
    # each case shows what it is named for
    degeneracies = sd.degeneracies.tolist()
    energies = [sd.energies[a:b].tolist() for a, b in zip(sd.bounds, sd.bounds[1:])]
    expected = {
        "one-level": lambda: degeneracies == [1],
        "two-level": lambda: degeneracies == [1, 1],
        "degenerate": lambda: degeneracies == [3, 2] and len(set(energies[0])) == 1,
        # the two lower levels lie 5e-8 apart, within the energy tolerance 1e-8 * 7.28: one level
        "warning-gaps": lambda: degeneracies == [3, 1] and len(sd.warnings) == 2,
        "seam-merge": lambda: degeneracies == [4, 1] and not sd.warnings,
        "seam-warning": lambda: degeneracies == [1, 1, 1] and "seam" in sd.warnings[-1],
        "resonance": lambda: degeneracies == [4, 1] and len(set(energies[0])) == 3,
    }
    assert expected[name](), (degeneracies, sd.warnings)


@st.composite
def protocol_setups(draw):
    """Random, ring or named graphs, optionally disordered; a localized, random or
    phased eigenstate detector; a localized or superposition initial state, or
    the detection state itself, which is fully bright."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["random", "ring", "tree:2", "cross:4", "lattice:3x3", "hypercube:3"]))
    if source == "random":
        g = helpers.random_graph(rng, max_nodes=10)
    elif source == "ring":
        g = helpers.graph(f"ring:{draw(st.integers(3, 16))}")
    else:
        g = helpers.graph(source)
    n = g.node_count
    if draw(st.booleans()):
        g = replace(g, onsite=rng.uniform(-0.5, 0.5, n))
    h = sw.hamiltonian(g, 1.0)
    kind = draw(st.sampled_from(["node", "random", "eigenstate"]))
    if kind == "node":
        psi_d = sw.localized_state(n, draw(st.integers(0, n - 1)))
    elif kind == "random":
        psi_d = helpers.random_state(rng, n)
    else:
        vecs = np.linalg.eigh(h)[1]
        psi_d = vecs[:, draw(st.integers(0, n - 1))] * np.exp(1j * rng.uniform(0.0, TWO_PI))
    init = draw(st.sampled_from(["node", "random", "detector"]))
    if init == "node":
        psi_in = sw.localized_state(n, draw(st.integers(0, n - 1)))
    elif init == "random":
        psi_in = helpers.random_state(rng, n)
    else:
        psi_in = psi_d
    tau = draw(st.floats(min_value=0.3, max_value=3.0))
    return sw.DetectionSetup(hamiltonian=h, detect_state=psi_d, initial_state=psi_in, tau=tau)


@settings(max_examples=200)
@given(protocol_setups(), st.sampled_from([1, 31, 32, 33, 2000]), st.sampled_from([1e-6, 1e-3, 1e-10]))
def test_windowed_protocol_matches_the_step_by_step_oracle(setup, n, rel_tol):
    stream = helpers.oracle_amplitude_stream(setup.unitary, setup.detect_state, setup.initial_state)
    expected = np.array([amp for amp, _ in itertools.islice(stream, n)])
    amps = sw.first_detection_amplitudes(setup, n)
    assert amps.shape == (n,)
    np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)

    probabilities, stop = helpers.oracle_pdet_series(setup, rel_tol, n)
    series = sw.pdet_series(setup, rel_tol=rel_tol, n_cap=n)
    assert (series.n_used, series.stop, series.converged) == (probabilities.shape[0], stop, stop != "cap")
    np.testing.assert_allclose(series.probabilities, probabilities, rtol=0, atol=1e-12)
    assert series.estimate == pytest.approx(math.fsum(probabilities), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(protocol_setups(), st.sampled_from([1, 31, 32, 33, 2000, 2049]), st.sampled_from([1e-6, 1e-3, 1e-10]))
def test_blocks_of_windows_give_the_window_by_window_series(setup, n_cap, rel_tol):
    # bit for bit: the probabilities, where the series stops, and the estimate
    series = sw.pdet_series(setup, rel_tol=rel_tol, n_cap=n_cap)
    expected = helpers.window_by_window_series(setup, rel_tol, n_cap)
    assert series.probabilities.tobytes() == expected.probabilities.tobytes()
    assert (series.n_used, series.stop, series.converged) == (expected.n_used, expected.stop, expected.converged)
    assert series.estimate == expected.estimate


@settings(max_examples=200)
@given(protocol_setups())
def test_running_sum_plus_bright_survival_is_the_spectral_pdet(setup):
    # a failed attempt leaves the dark space alone, so after every window the
    # rest of the series is exactly the bright survival: to 1e-12 on the
    # spectral bright states, and on the Krylov basis Q up to the distance
    # between the two spaces, which Krylov roundoff keeps below 1e-8
    sd = sw.fold_sectors(setup.eigensystem, setup.tau)
    expected = sw.pdet_spectral(sd, setup.detect_state, setup.initial_state).pdet
    bright = np.column_stack([b for _, b in sw.bright_eigenstates(sd, setup.detect_state)])
    q = setup.bright_basis
    distance = float(np.linalg.norm(q @ q.conj().T - bright @ bright.conj().T, 2))
    assert distance < 1e-8
    total = 0.0
    for window in itertools.chain.from_iterable(detection._protocol_blocks(setup, 8)):
        amps, psi = window[:detection.SERIES_WINDOW], window[detection.SERIES_WINDOW:]
        total += float(np.sum(np.abs(amps) ** 2))
        survival = float(np.vdot(psi, psi).real)
        assert total + float(np.sum(np.abs(bright.conj().T @ psi) ** 2)) == pytest.approx(expected, abs=1e-12)
        rest = float(np.sum(np.abs(q.conj().T @ psi) ** 2))
        assert abs(total + rest - expected) <= 1e-12 + distance * survival
