"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import math

import numpy as np

import strobewalk as sw

import helpers

TWO_PI = 2.0 * math.pi

BOUND_SWEEP_GRAPHS = ("ring:6", "hypercube:3", "complete:8", "square_center",
                      "tree:2", "lattice:4x4")

TREE_TABLES = {
    3: {0: 3 / 5, 4: 3 / 5, 1: 1.0, 2: 1.0, 3: 1.0, 5: 2 / 5, 6: 2 / 5},
    1: {0: 1 / 2, 1: 1.0, 2: 1.0, 3: 3 / 8, 4: 3 / 8, 5: 3 / 8, 6: 3 / 8},
    0: {0: 1.0, 1: 1 / 2, 2: 1 / 2, 3: 1 / 4, 4: 1 / 4, 5: 1 / 4, 6: 1 / 4},
}


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_tree_detection_tables():
    h = helpers.ham("tree:2")
    for detect_node, table in TREE_TABLES.items():
        psi_d = helpers.basis("tree:2", detect_node)
        for tau in (0.7, 1.3):
            sd = sw.fold_sectors(helpers.eigensystem("tree:2"), tau)
            for init_node, expected in table.items():
                psi_in = helpers.basis("tree:2", init_node)
                spectral = sw.pdet_spectral(sd, psi_d, psi_in).pdet
                assert abs(spectral - expected) < 1e-9, (detect_node, init_node, tau)
                setup = sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                                          initial_state=psi_in, tau=tau)
                series = sw.pdet_series(setup, rel_tol=1e-7)
                assert series.converged
                assert abs(series.estimate - expected) < 1e-6, (detect_node, init_node, tau)
    report(1, "tree detection tables for leaf/middle/root placements, "
              "spectral at 1e-9 and series at 1e-6 for tau in {0.7, 1.3}")


def test_criterion_2_cross_decomposition():
    stab = helpers.node_stabilizer("cross:4", 0)
    psi_d = helpers.basis("cross:4", 0)
    psi_in = helpers.basis("cross:4", 1)
    assert sw.orbit_rank(stab, psi_in) == 4

    sd = helpers.sectors("cross:4", 1.1)
    rep = sw.pdet_spectral(sd, psi_d, psi_in)
    assert abs(rep.pdet - 0.25) < 1e-9
    assert rep.dark_dim == 3

    uniform, weight = sw.symmetric_part(stab, psi_in)
    assert abs(weight - 0.25) < 1e-12
    assert abs(sw.pdet_spectral(sd, psi_d, uniform).pdet - 1.0) < 1e-9

    orbit = [helpers.basis("cross:4", r) for r in (1, 2, 3, 4)]
    dark = sw.equivalent_dark_basis(orbit)
    assert len(dark) == 3
    for state in dark:
        setup = sw.DetectionSetup(hamiltonian=helpers.ham("cross:4"), detect_state=psi_d,
                                  initial_state=state, tau=1.1)
        amps = sw.first_detection_amplitudes(setup, 200)
        assert float(np.sum(np.abs(amps) ** 2)) < 1e-18
    report(2, "cross: orbit rank 4, pdet(|1>) = 1/4, pdet(uniform state) = 1, "
              "dark dimension 3, all three orbit dark states silent to 1e-18")


def test_criterion_3_bound_sweep_with_attainment():
    pairs = 0
    for spec in BOUND_SWEEP_GRAPHS:
        g = helpers.graph(spec)
        sd = helpers.sectors(spec)
        for detect_node in range(g.node_count):
            stab = helpers.node_stabilizer(spec, detect_node)
            psi_d = helpers.basis(spec, detect_node)
            projector = sw.symmetry_projector(stab)
            for init_node in range(g.node_count):
                psi_in = helpers.basis(spec, init_node)
                bound = float(np.real(np.vdot(psi_in, projector @ psi_in)))
                exact = sw.pdet_spectral(sd, psi_d, psi_in).pdet
                assert exact <= bound + 1e-10, (spec, detect_node, init_node)
                pairs += 1
    # attainment cases
    k8 = sw.pdet_spectral(helpers.sectors("complete:8"), helpers.basis("complete:8", 0),
                          helpers.basis("complete:8", 1)).pdet
    assert abs(k8 - sw.upper_bound(helpers.node_stabilizer("complete:8", 0),
                                   helpers.basis("complete:8", 1))) < 1e-9
    q3 = helpers.sectors("hypercube:3")
    q3_stab = helpers.node_stabilizer("hypercube:3", 0)
    q3_d = helpers.basis("hypercube:3", 0)
    neighbor = sw.pdet_spectral(q3, q3_d, helpers.basis("hypercube:3", 1)).pdet
    assert abs(neighbor - sw.upper_bound(q3_stab, helpers.basis("hypercube:3", 1))) < 1e-9
    assert abs(neighbor - 1 / 3) < 1e-9
    opposite = sw.pdet_spectral(q3, q3_d, helpers.basis("hypercube:3", 7)).pdet
    assert abs(opposite - sw.upper_bound(q3_stab, helpers.basis("hypercube:3", 7))) < 1e-9
    assert abs(opposite - 1.0) < 1e-9
    report(3, f"pdet <= symmetry bound + 1e-10 on all {pairs} localized pairs of "
              f"{len(BOUND_SWEEP_GRAPHS)} graphs; bound attained on complete:8 and hypercube:3")


def test_criterion_4_stabilizer_facts():
    stab8 = helpers.node_stabilizer("ring:8", 0)
    assert stab8.order == 2
    ranks = [sw.orbit_rank(stab8, helpers.basis("ring:8", r)) for r in range(8)]
    assert ranks == [1, 2, 2, 2, 1, 2, 2, 2]
    assert helpers.group("tree:2").order == 8
    assert helpers.node_stabilizer("tree:2", 0).order == 8
    report(4, "ring:8 stabilizer order 2 with orbit ranks (1,2,2,2,1,2,2,2); "
              "tree automorphism group order 8; tree root stabilizer order 8")


def _survival_decay(h, psi_d, tau):
    """Largest subunit eigenvalue magnitude of the survival operator."""
    es = sw.diagonalize(h)
    u = sw.evolution_operator(es, tau)
    m = u - np.outer(psi_d, psi_d.conj() @ u)
    mags = np.abs(np.linalg.eigvals(m))
    sub = mags[mags < 1.0 - 1e-9]
    return float(sub.max()) if sub.size else 0.0


def test_criterion_5_randomized_oracle_equivalence():
    rng = np.random.default_rng(3517)
    worst_gap = 0.0
    for _ in range(200):
        # Redraw until the setup is resolvable: tau must be non-resonant and
        # the survival decay fast enough for the series to settle within the
        # step cap.  The guard never looks at the detection probabilities.
        while True:
            g = helpers.random_graph(rng, max_nodes=10)
            n = g.node_count
            h = sw.hamiltonian(g, 1.0)
            es = sw.diagonalize(h)
            detect_node, init_node = rng.integers(0, n, size=2)
            tau = float(rng.uniform(0.4, 2.6))
            psi_d = sw.localized_state(n, int(detect_node))
            if not sw.is_resonant(sw.fold_sectors(es, tau)) and _survival_decay(h, psi_d, tau) <= 0.999:
                break
        psi_in = sw.localized_state(n, int(init_node))
        sd = sw.fold_sectors(es, tau)
        spectral = sw.pdet_spectral(sd, psi_d, psi_in)
        setup = sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                                  initial_state=psi_in, tau=tau)
        series = sw.pdet_series(setup, rel_tol=1e-6)
        assert series.converged
        gap = abs(series.estimate - spectral.pdet)
        assert gap < 1e-5
        worst_gap = max(worst_gap, gap)

        span = helpers.krylov_basis(setup.unitary, psi_d)
        assert span.shape[1] == spectral.bright_dim
        overlap = float(np.sum(np.abs(span.conj().T @ psi_in) ** 2))
        assert abs(spectral.pdet - overlap) < 1e-9
    report(5, f"200 randomized setups: |series - spectral| < 1e-5 (worst {worst_gap:.2e}), "
              "Krylov span rank equals bright count, pdet equals squared bright overlap")


def test_criterion_6_quotient_consistency():
    checked = 0
    for spec in BOUND_SWEEP_GRAPHS + ("cross:4",):
        g = helpers.graph(spec)
        h = helpers.ham(spec)
        sd = helpers.sectors(spec)
        full_spectrum = list(helpers.eigensystem(spec).eigenvalues)
        for detect_node in range(g.node_count):
            stab = helpers.node_stabilizer(spec, detect_node)
            psi_d = helpers.basis(spec, detect_node)
            q = sw.symmetrize(h, stab, psi_d)
            reduced_spectrum = q.eigensystem.eigenvalues
            remaining = list(full_spectrum)
            for e in reduced_spectrum:
                best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - e))
                assert abs(remaining[best] - e) < 1e-9, (spec, detect_node)
                remaining.pop(best)
            for init_node in range(g.node_count):
                psi_in = helpers.basis(spec, init_node)
                full = sw.pdet_spectral(sd, psi_d, psi_in).pdet
                reduced = sw.pdet_symmetrized(q, psi_in).pdet
                assert abs(full - reduced) < 1e-9, (spec, detect_node, init_node)
                checked += 1
    report(6, f"quotient pdet matches the full-space value on {checked} localized "
              "pairs across 7 graphs; reduced spectra embed in the full spectra")


def test_criterion_7_ring_eigenstate_detection():
    length = 6
    group = helpers.group("ring:6")
    sd = helpers.sectors("ring:6", 0.9)
    for k_d in (1, 2, 4, 5):
        psi_d = helpers.ring_eigenstate(length, k_d)
        stab = sw.stabilizer(group, psi_d)
        assert stab.order == length
        for image, phase in helpers.close_group(stab):
            shift = image[0]
            assert image == tuple((r + shift) % length for r in range(length))
            expected = np.exp(-1j * TWO_PI * k_d * shift / length)
            assert abs(phase - expected) < 1e-10
        for r in range(length):
            value = sw.pdet_spectral(sd, psi_d, helpers.basis("ring:6", r)).pdet
            assert abs(value - 1.0 / length) < 1e-9
            assert abs(sw.upper_bound(stab, helpers.basis("ring:6", r)) - 1.0 / length) < 1e-10

    # top of the band: reflections join in, phases alternate with the shift
    psi_d = helpers.ring_eigenstate(length, 3)
    stab = sw.stabilizer(group, psi_d)
    assert stab.order == 12
    projector = sw.symmetry_projector(stab)
    for r in range(length):
        expected = ((-1) ** r / math.sqrt(length)) * psi_d
        np.testing.assert_allclose(projector @ helpers.basis("ring:6", r), expected, atol=1e-10)
        value = sw.pdet_spectral(sd, psi_d, helpers.basis("ring:6", r)).pdet
        assert abs(value - 1.0 / length) < 1e-9
    report(7, "ring:6 eigenstate detection: all translation phases verified, "
              "pdet = 1/6 for every localized start, including the phased top-band case")


def test_criterion_8_interference_law():
    h = helpers.ham("ring:8")
    psi_d = helpers.basis("ring:8", 0)
    base = sw.first_detection_amplitudes(
        sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                          initial_state=helpers.basis("ring:8", 1), tau=0.9), 20)
    base_probs = np.abs(base) ** 2
    for alpha in (0.0, math.pi / 2, math.pi):
        mix = np.zeros(8, dtype=complex)
        mix[1] = 1.0 / math.sqrt(2.0)
        mix[7] = np.exp(1j * alpha) / math.sqrt(2.0)
        probs = np.abs(sw.first_detection_amplitudes(
            sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                              initial_state=mix, tau=0.9), 20)) ** 2
        assert np.max(np.abs(probs - (1.0 + math.cos(alpha)) * base_probs)) < 1e-10, alpha
    report(8, "mirror-pair superpositions on ring:8 scale the detection statistics "
              "by 1 + cos(alpha) for alpha in {0, pi/2, pi} (n <= 20, 1e-10)")


def test_criterion_9_tau_independence_and_resonance_flags():
    taus = (0.7, 1.1, 1.9)
    for spec in ("tree:2", "ring:6"):
        g = helpers.graph(spec)
        es = helpers.eigensystem(spec)
        for tau in taus:
            assert not sw.is_resonant(sw.fold_sectors(es, tau)), (spec, tau)
        for detect_node in range(g.node_count):
            psi_d = helpers.basis(spec, detect_node)
            for init_node in range(g.node_count):
                psi_in = helpers.basis(spec, init_node)
                values = [
                    sw.pdet_spectral(sw.fold_sectors(es, tau), psi_d, psi_in).pdet
                    for tau in taus
                ]
                assert max(values) - min(values) < 1e-12, (spec, detect_node, init_node)
    es6 = helpers.eigensystem("ring:6")
    assert sw.is_resonant(sw.fold_sectors(es6, math.pi))
    assert sw.is_resonant(sw.fold_sectors(es6, TWO_PI))
    report(9, "pdet identical to 1e-12 at tau in {0.7, 1.1, 1.9} on tree:2 and ring:6; "
              "tau = pi and 2*pi correctly flagged resonant on ring:6")
