"""Protocol iteration, series summation and the spectral formula."""

import math
import sys

import numpy as np
import pytest

import strobewalk as sw
from strobewalk.errors import StateError

import helpers

TWO_PI = 2.0 * math.pi


def setup_for(spec, detect, init, tau):
    g = helpers.graph(spec)
    return sw.DetectionSetup(
        hamiltonian=helpers.ham(spec),
        detect_state=detect if isinstance(detect, np.ndarray) else sw.localized_state(g.node_count, detect),
        initial_state=init if isinstance(init, np.ndarray) else sw.localized_state(g.node_count, init),
        tau=tau,
    )


def cross_dark_state():
    psi = np.zeros(5, dtype=complex)
    psi[[1, 2, 3, 4]] = [0.5, -0.5, 0.5, -0.5]
    return psi


class TestAmplitudes:
    def test_first_amplitude_is_matrix_element(self):
        setup = setup_for("square_center", 0, 0, 0.9)
        u = helpers.expm_evolution(setup.hamiltonian, 0.9)
        amp = sw.first_detection_amplitudes(setup, 1)[0]
        assert amp == pytest.approx(np.vdot(setup.detect_state, u @ setup.detect_state), abs=1e-10)

    def test_cross_alternating_state_never_detected(self):
        setup = setup_for("cross:4", 0, cross_dark_state(), 1.1)
        amps = sw.first_detection_amplitudes(setup, 60)
        assert np.max(np.abs(amps)) < 1e-12

    def test_revival_detects_everything_at_first_attempt(self):
        # U(2*pi) = 1 on ring:6, so only the n=1 amplitude survives.
        psi_in = helpers.random_state(np.random.default_rng(0), 6)
        setup = setup_for("ring:6", 0, psi_in, TWO_PI)
        amps = sw.first_detection_amplitudes(setup, 10)
        assert amps[0] == pytest.approx(psi_in[0], abs=1e-10)
        assert np.max(np.abs(amps[1:])) < 1e-10

    def test_matches_expm_reference_iteration(self):
        setup = setup_for("tree:2", 1, 5, 0.8)
        ours = sw.first_detection_amplitudes(setup, 40)
        reference, _ = helpers.protocol_amplitudes_expm(
            setup.hamiltonian, setup.detect_state, setup.initial_state, 0.8, 40
        )
        np.testing.assert_allclose(ours, reference, atol=1e-9)

    def test_linearity_in_the_initial_state(self):
        rng = np.random.default_rng(5)
        g = helpers.graph("ring:6")
        psi_a = helpers.random_state(rng, 6)
        psi_b = helpers.random_state(rng, 6)
        alpha, beta = 0.3 - 0.4j, 0.7 + 0.1j
        combo = alpha * psi_a + beta * psi_b
        norm = np.linalg.norm(combo)
        setup_combo = setup_for("ring:6", 0, combo / norm, 0.9)
        amps_combo = sw.first_detection_amplitudes(setup_combo, 25) * norm
        amps_a = sw.first_detection_amplitudes(setup_for("ring:6", 0, psi_a, 0.9), 25)
        amps_b = sw.first_detection_amplitudes(setup_for("ring:6", 0, psi_b, 0.9), 25)
        np.testing.assert_allclose(amps_combo, alpha * amps_a + beta * amps_b, atol=1e-12)

    def test_probability_conservation_at_every_truncation(self):
        setup = setup_for("tree:2", 0, 3, 0.7)
        u = helpers.expm_evolution(setup.hamiltonian, 0.7)
        psi = setup.initial_state.copy()
        detected = 0.0
        for _ in range(200):
            psi = u @ psi
            amp = complex(np.vdot(setup.detect_state, psi))
            psi = psi - amp * setup.detect_state
            detected += abs(amp) ** 2
            survival = float(np.vdot(psi, psi).real)
            assert detected + survival == pytest.approx(1.0, abs=1e-10)

    def test_setup_validation(self):
        g = helpers.graph("ring:3")
        ok = sw.localized_state(3, 0)
        with pytest.raises(StateError):
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:3"), detect_state=ok * 2.0,
                              initial_state=ok, tau=1.0)
        with pytest.raises(StateError):
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:3"), detect_state=ok,
                              initial_state=ok, tau=-1.0)
        with pytest.raises(StateError):
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:3"), detect_state=sw.localized_state(4, 0),
                              initial_state=ok, tau=1.0)

    @pytest.mark.parametrize("n_max", [0, -5, 2.5, math.nan, math.inf, True, "40", None])
    def test_n_max_must_be_an_int_of_at_least_one(self, n_max):
        setup = setup_for("ring:8", 0, 3, 1.1)
        with pytest.raises(ValueError, match="n_max"):
            sw.first_detection_amplitudes(setup, n_max)

    def test_a_numpy_int_n_max_is_an_int(self):
        setup = setup_for("ring:8", 0, 3, 1.1)
        assert sw.first_detection_amplitudes(setup, np.int64(40)).tobytes() == (
            sw.first_detection_amplitudes(setup, 40).tobytes())

    @pytest.mark.parametrize("n_max", [1, 31, 32, 33, 64, 65, 200, 2049])
    def test_amplitudes_are_the_windows_cut_to_n_max(self, n_max):
        # The blocks of windows give the amplitudes of one window at a time, bit for bit.
        setup = setup_for("ring:16", 0, 5, 1.3)
        psi, windows = setup.initial_state.astype(complex), []
        for _ in range(-(-n_max // 32)):
            out = setup.window_operator @ psi
            windows.append(out[:32])
            psi = out[32:]
        expected = np.concatenate(windows)[:n_max]
        assert sw.first_detection_amplitudes(setup, n_max).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("vec", [[math.nan, 0.0, 0.0], [1.0, math.nan, 0.0], [complex(0.0, math.nan), 0.0],
                                     [math.inf, 0.0]])
    def test_as_state_rejects_a_norm_that_is_not_one(self, vec):
        with pytest.raises(StateError, match="not normalized"):
            sw.as_state(vec)


class TestSeries:
    def test_dark_state_sums_to_zero(self):
        result = sw.pdet_series(setup_for("cross:4", 0, cross_dark_state(), 1.1))
        assert result.converged
        assert result.estimate < 1e-25

    def test_tree_leaf_to_root(self):
        result = sw.pdet_series(setup_for("tree:2", 0, 3, 0.7))
        assert result.converged
        assert result.estimate == pytest.approx(0.25, abs=1e-6)

    def test_cross_neighbor(self):
        result = sw.pdet_series(setup_for("cross:4", 0, 1, 1.1))
        assert result.converged
        assert result.estimate == pytest.approx(0.25, abs=1e-6)

    def test_monotone_partial_sums_and_cap(self):
        setup = setup_for("ring:6", 0, 1, 1.0)
        amps = sw.first_detection_amplitudes(setup, 300)
        sums = np.cumsum(np.abs(amps) ** 2)
        assert np.all(np.diff(sums) >= 0)
        assert sums[-1] <= 1.0 + 1e-12

    def test_estimate_never_exceeds_one(self):
        for node in range(7):
            result = sw.pdet_series(setup_for("tree:2", 0, node, 1.3))
            assert result.estimate <= 1.0 + 1e-12

    def test_agrees_across_two_nonresonant_periods(self):
        a = sw.pdet_series(setup_for("tree:2", 1, 3, 0.7))
        b = sw.pdet_series(setup_for("tree:2", 1, 3, 1.3))
        assert a.estimate == pytest.approx(b.estimate, abs=2e-6)

    def test_stop_rules(self):
        # fully bright, a dark part, nothing detectable: the bright survival
        # vanishes in each; too few attempts: the cap
        cases = [
            (setup_for("tree:2", 0, 0, 0.7), 1.0),
            (setup_for("tree:2", 0, 3, 0.7), 0.25),
            (setup_for("cross:4", 0, cross_dark_state(), 1.1), 0.0),
        ]
        for setup, expected in cases:
            result = sw.pdet_series(setup)
            assert result.converged is True
            assert result.n_used % 32 == 0
            assert result.estimate == pytest.approx(expected, abs=1e-6)
        capped = sw.pdet_series(setup_for("ring:64", 0, 32, 1.0), n_cap=40)
        assert (capped.converged, capped.n_used) == (False, 40)

    def test_survival_stop_bounds_the_missing_tail(self):
        setup = setup_for("ring:16", 0, 8, 1.3)
        result = sw.pdet_series(setup, rel_tol=1e-9)
        assert result.converged is True
        # by unitarity the undetected weight after n_used attempts is 1 - estimate
        _, psi = helpers.protocol_amplitudes_expm(
            setup.hamiltonian, setup.detect_state, setup.initial_state, 1.3, result.n_used)
        survival = float(np.vdot(psi, psi).real)
        assert survival < 1e-9 * result.estimate
        assert 1.0 - result.estimate == pytest.approx(survival, abs=1e-12)

    def test_protocol_never_reads_the_sectors(self, monkeypatch):
        # the amplitudes are an independent route: U(tau) and the detector only
        def refuse(*args, **kwargs):
            raise AssertionError("the protocol read the sector decomposition")

        setup = setup_for("ring:16", 0, 5, 1.3)
        # the series reads the sectors only to stop: its probabilities are the amplitudes'
        series = sw.pdet_series(setup)
        assert series.converged
        expected = np.abs(sw.first_detection_amplitudes(setup, series.n_used)) ** 2
        assert series.probabilities.tobytes() == expected.tobytes()
        originals = (sw.spectral.fold_sectors, sw.spectral.energy_sectors)
        for key, mod in list(sys.modules.items()):
            if key == "strobewalk" or key.startswith("strobewalk."):
                for attr, value in list(vars(mod).items()):
                    if any(value is fn for fn in originals):
                        monkeypatch.setattr(mod, attr, refuse)
        assert sw.first_detection_amplitudes(setup, 40).shape == (40,)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-6, math.inf, -math.inf, math.nan, "1e-6", None, 1j])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        # ring:8 detect 0 init 3 at tau=1.1 has pdet 0.5: rel_tol=inf stopped it at 0.49968 and
        # called that converged, and rel_tol=nan ran it to the cap.
        with pytest.raises(ValueError, match="rel_tol"):
            sw.pdet_series(setup_for("ring:8", 0, 3, 1.1), rel_tol=rel_tol)

    @pytest.mark.parametrize("n_cap", [0, -5, 2.5, math.nan, math.inf, True, False, "100", None, 1e5])
    def test_n_cap_must_be_an_int_of_at_least_one(self, n_cap):
        with pytest.raises(ValueError, match="n_cap"):
            sw.pdet_series(setup_for("ring:8", 0, 3, 1.1), n_cap=n_cap)

    def test_the_smallest_valid_arguments(self):
        setup = setup_for("ring:8", 0, 3, 1.1)
        one = sw.pdet_series(setup, rel_tol=5e-324, n_cap=1)
        assert (one.n_used, one.converged) == (1, False)
        assert sw.pdet_series(setup, n_cap=np.int32(40)).n_used == 40
        assert sw.pdet_series(setup, rel_tol=1).converged is True

    @pytest.mark.parametrize("spec, detect, init, tau, n_used", [
        ("ring:64", 0, 32, 1.0, 35392),
        ("lattice:8x8", 0, 36, 1.3, 75424),
        ("ring:32", 4, 18, 1.7728, 1856),
        ("lattice:8x8", 5, 36, 1.3, 100_000),
    ])
    def test_long_series_stop_where_window_by_window_does(self, spec, detect, init, tau, n_used):
        setup = setup_for(spec, detect, init, tau)
        series = sw.pdet_series(setup)
        expected = helpers.window_by_window_series(setup, sw.detection.SERIES_REL_TOL, sw.detection.DEFAULT_SERIES_CAP)
        assert series.n_used == n_used
        assert series.converged is (n_used != 100_000)
        assert series.probabilities.tobytes() == expected.probabilities.tobytes()
        assert (series.n_used, series.converged, series.estimate) == (expected.n_used, expected.converged,
                                                                      expected.estimate)

    def test_a_survival_at_its_limit_is_tested_window_by_window(self, monkeypatch):
        # rel_tol puts window 5's limit on its bright survival, to the last bits, so the
        # block-wise survival is within the re-test band and the window's own survival decides.
        setup = setup_for("ring:16", 0, 8, 1.3)
        q_h = helpers.stop_basis(setup).conj().T
        psi, total = setup.initial_state.astype(complex), 0.0
        for _ in range(6):
            out = setup.window_operator @ psi
            total += float(np.sum(np.abs(out[:32]) ** 2))
            psi = out[32:]
        survival = float(np.vdot(q_h @ psi, q_h @ psi).real)
        retests = []
        original = sw.detection._bright_survival
        monkeypatch.setattr(sw.detection, "_bright_survival", lambda *a: retests.append(a) or original(*a))
        edge = survival / total
        for rel_tol in [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), edge * (1 + 1e-9)]:
            retests.clear()
            series = sw.pdet_series(setup, rel_tol=rel_tol)
            expected = helpers.window_by_window_series(setup, rel_tol, sw.detection.DEFAULT_SERIES_CAP)
            assert retests
            assert series.probabilities.tobytes() == expected.probabilities.tobytes()
            assert (series.n_used, series.converged) == (expected.n_used, expected.converged)
        assert sw.pdet_series(setup, rel_tol=edge * (1 + 1e-6)).n_used == 192
        assert sw.pdet_series(setup, rel_tol=edge * (1 - 1e-6)).n_used > 192

    def test_full_revival_detects_only_the_overlap(self):
        # At the full revival nothing moves: the series is |<d|in>|^2 = 0 here.
        result = sw.pdet_series(setup_for("ring:6", 0, 1, TWO_PI))
        assert result.converged
        assert result.estimate == pytest.approx(0.0, abs=1e-20)


class TestSpectralFormula:
    def test_detect_state_is_bright(self):
        sd = helpers.sectors("square_center", 1.3)
        psi_d = helpers.basis("square_center", 4)
        assert sw.pdet_spectral(sd, psi_d, psi_d).pdet == pytest.approx(1.0, abs=1e-12)

    def test_tree_leaf_detection_table(self):
        sd = helpers.sectors("tree:2", 0.7)
        psi_d = helpers.basis("tree:2", 3)
        expected = {0: 0.6, 1: 1.0, 5: 0.4}
        for node, value in expected.items():
            rep = sw.pdet_spectral(sd, psi_d, helpers.basis("tree:2", node))
            assert rep.pdet == pytest.approx(value, abs=1e-9)

    def test_tree_middle_detection_table(self):
        sd = helpers.sectors("tree:2", 0.7)
        psi_d = helpers.basis("tree:2", 1)
        assert sw.pdet_spectral(sd, psi_d, helpers.basis("tree:2", 0)).pdet == pytest.approx(0.5, abs=1e-9)
        assert sw.pdet_spectral(sd, psi_d, helpers.basis("tree:2", 3)).pdet == pytest.approx(0.375, abs=1e-9)

    def test_report_internal_consistency(self):
        sd = helpers.sectors("ring:6", 1.0)
        rep = sw.pdet_spectral(sd, helpers.basis("ring:6", 0), helpers.basis("ring:6", 2))
        assert rep.pdet == pytest.approx(math.fsum(c for _, c in rep.per_sector), abs=1e-15)
        assert rep.bright_dim + rep.dark_dim == 6
        assert all(c >= 0 for _, c in rep.per_sector)

    def test_value_independent_of_degenerate_basis_choice(self):
        # Re-mix a degenerate sector by a random unitary; the value must not move.
        rng = np.random.default_rng(42)
        es = helpers.eigensystem("ring:6")
        sd = sw.fold_sectors(es, 1.0)
        psi_d = helpers.basis("ring:6", 0)
        psi_in = helpers.random_state(rng, 6)
        base = sw.pdet_spectral(sd, psi_d, psi_in).pdet
        vectors = sd.vectors.copy()
        for a, b in zip(sd.bounds.tolist(), sd.bounds[1:].tolist()):
            if b - a > 1:
                q, _ = np.linalg.qr(rng.normal(size=(b - a, b - a)) + 1j * rng.normal(size=(b - a, b - a)))
                vectors[:, a:b] = vectors[:, a:b] @ q
        assert not np.allclose(vectors, sd.vectors)
        mixed = sw.SpectralDecomposition(energies=sd.energies, vectors=vectors, bounds=sd.bounds,
                                         phases=sd.phases, tau=sd.tau)
        assert sw.pdet_spectral(mixed, psi_d, psi_in).pdet == pytest.approx(base, abs=1e-12)

    def test_tau_independent_off_resonance(self):
        psi_d = helpers.basis("tree:2", 3)
        psi_in = helpers.basis("tree:2", 0)
        values = {
            sw.pdet_spectral(helpers.sectors("tree:2", tau), psi_d, psi_in).pdet
            for tau in (0.7, 1.1, 1.9)
        }
        assert max(values) - min(values) < 1e-12


class TestBrightAndDark:
    def test_nondegenerate_sector_gives_eigenvector_up_to_phase(self):
        sd = helpers.sectors("complete:2", 1.0)
        psi_d = helpers.basis("complete:2", 0)
        bright = helpers.bright_states(sd, psi_d)
        assert len(bright) == 2
        for idx, beta in bright:
            v = sd.vectors[:, sd.bounds[idx]]
            overlap = abs(np.vdot(v, beta))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_sector_listed_dark(self):
        sd = helpers.sectors("cross:4", 1.1)
        psi_d = helpers.basis("cross:4", 0)
        rep = sw.pdet_spectral(sd, psi_d, helpers.basis("cross:4", 1))
        bright_ids = {idx for idx, _ in helpers.bright_states(sd, psi_d)}
        assert set(rep.excluded_sectors) == set(range(len(sd.degeneracies))) - bright_ids
        assert len(rep.excluded_sectors) == 1  # the zero-energy leaf sector

    def test_tree_root_has_three_bright_levels(self):
        sd = helpers.sectors("tree:2", 0.7)
        assert len(helpers.bright_states(sd, helpers.basis("tree:2", 0))) == 3

    @pytest.mark.parametrize(
        "spec, node, dark_dim",
        [("complete:2", 0, 0), ("ring:6", 0, 2), ("cross:4", 0, 3)],
    )
    def test_dark_dimensions(self, spec, node, dark_dim):
        sd = helpers.sectors(spec, 1.0)
        basis = helpers.dark_basis(sd, helpers.basis(spec, node))
        assert basis.shape == (helpers.graph(spec).node_count, dark_dim)

    def test_dark_basis_states_are_never_detected(self):
        sd = helpers.sectors("ring:6", 1.0)
        psi_d = helpers.basis("ring:6", 0)
        basis = helpers.dark_basis(sd, psi_d)
        gram = basis.conj().T @ basis
        np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-12)
        for k in range(basis.shape[1]):
            setup = setup_for("ring:6", 0, basis[:, k], 1.0)
            amps = sw.first_detection_amplitudes(setup, 50)
            assert np.max(np.abs(amps)) < 1e-10

    def test_pdet_equals_squared_bright_overlap(self):
        rng = np.random.default_rng(9)
        sd = helpers.sectors("tree:2", 0.7)
        psi_d = helpers.basis("tree:2", 1)
        bright = np.column_stack([b for _, b in helpers.bright_states(sd, psi_d)])
        for _ in range(5):
            psi_in = helpers.random_state(rng, 7)
            overlap = float(np.sum(np.abs(bright.conj().T @ psi_in) ** 2))
            assert sw.pdet_spectral(sd, psi_d, psi_in).pdet == pytest.approx(overlap, abs=1e-12)


class TestResonantDetection:
    """At a resonant period sectors merge, degeneracy grows, values drop."""

    # off resonance the ring:6 values equal the symmetry bound everywhere
    OFF_RESONANT = [1.0, 0.5, 0.5, 1.0, 0.5, 0.5]
    # expected values verified against the matrix-exponential protocol oracle
    AT_PI = [1.0, 0.0, 0.5, 0.0, 0.5, 0.0]
    AT_HALF_PI = [1.0, 1 / 6, 0.5, 2 / 3, 0.5, 1 / 6]

    def test_off_resonant_table_saturates_the_bound(self):
        sd = helpers.sectors("ring:6", 1.0)
        psi_d = helpers.basis("ring:6", 0)
        for r, expected in enumerate(self.OFF_RESONANT):
            assert sw.pdet_spectral(sd, psi_d, helpers.basis("ring:6", r)).pdet == pytest.approx(
                expected, abs=1e-9)

    @pytest.mark.parametrize(
        "tau, table, sizes, dark",
        [(math.pi, AT_PI, [2, 4], 4), (math.pi / 2, AT_HALF_PI, [2, 2, 2], 3)],
    )
    def test_merged_sectors_and_reduced_values(self, tau, table, sizes, dark):
        es = helpers.eigensystem("ring:6")
        sd = sw.fold_sectors(es, tau)
        assert sw.is_resonant(sd)
        assert sorted(sd.degeneracies.tolist()) == sizes
        psi_d = helpers.basis("ring:6", 0)
        assert helpers.dark_basis(sd, psi_d).shape[1] == dark
        for r, expected in enumerate(table):
            value = sw.pdet_spectral(sd, psi_d, helpers.basis("ring:6", r)).pdet
            assert value == pytest.approx(expected, abs=1e-9)
            assert value <= self.OFF_RESONANT[r] + 1e-12
            # independent oracle: iterate the protocol on the scipy
            # matrix-exponential propagator and sum the probabilities
            amps, _ = helpers.protocol_amplitudes_expm(
                helpers.ham("ring:6"), psi_d, helpers.basis("ring:6", r), tau, 600)
            assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(expected, abs=2e-4)

    def test_odd_nodes_go_fully_dark_at_pi(self):
        # the two bright states at tau = pi live on the even sublattice only
        sd = helpers.sectors("ring:6", math.pi)
        psi_d = helpers.basis("ring:6", 0)
        bright = helpers.bright_states(sd, psi_d)
        assert len(bright) == 2
        for _, beta in bright:
            assert np.max(np.abs(beta[1::2])) < 1e-12


def bright_span(spec, node, tau):
    """The Krylov bright basis of ``U(tau)`` for the detector at ``node``."""
    psi_d = helpers.basis(spec, node)
    return helpers.krylov_basis(sw.evolution_operator(helpers.eigensystem(spec), tau), psi_d)


class TestKrylov:
    @pytest.mark.parametrize(
        "spec, node, tau, rank",
        [("ring:6", 0, 1.0, 4), ("cross:4", 0, 1.1, 2), ("tree:2", 0, 0.7, 3)],
    )
    def test_rank_matches_bright_count(self, spec, node, tau, rank):
        span = bright_span(spec, node, tau)
        assert span.shape[1] == rank
        sd = helpers.sectors(spec, tau)
        assert len(helpers.bright_states(sd, helpers.basis(spec, node))) == rank

    def test_span_equals_bright_space(self):
        spec, node, tau = "tree:2", 3, 0.8
        span = bright_span(spec, node, tau)
        sd = helpers.sectors(spec, tau)
        bright = np.column_stack([b for _, b in helpers.bright_states(sd, helpers.basis(spec, node))])
        p_span = span @ span.conj().T
        p_bright = bright @ bright.conj().T
        assert np.max(np.abs(p_span - p_bright)) < 1e-8
