"""Eigendecomposition, sector folding and resonance enumeration."""

import json
import math

import numpy as np
import pytest

import strobewalk as sw
from strobewalk import spectral
from strobewalk.errors import SpectralError

import helpers

TWO_PI = 2.0 * math.pi


class TestDiagonalize:
    def test_two_by_two_closed_form(self):
        es = sw.diagonalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_ring6_spectrum(self):
        es = helpers.eigensystem("ring:6")
        np.testing.assert_allclose(es.eigenvalues, [-2, -1, -1, 1, 1, 2], atol=1e-12)

    def test_tree2_spectrum(self):
        es = helpers.eigensystem("tree:2")
        s2 = math.sqrt(2.0)
        np.testing.assert_allclose(es.eigenvalues, [-2, -s2, 0, 0, 0, s2, 2], atol=1e-12)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for dim in (2, 5, 16):
            h = helpers.random_hermitian(rng, dim)
            es = sw.diagonalize(h)
            hnorm = np.max(np.abs(es.eigenvalues))
            residual = np.max(np.abs(h @ es.eigenvectors - es.eigenvectors * es.eigenvalues))
            assert residual <= 1e-10 * hnorm
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(3)
        h = helpers.random_hermitian(rng, 9)
        a = sw.diagonalize(h)
        b = sw.diagonalize(h.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_sign_convention_first_component_positive_real(self):
        rng = np.random.default_rng(11)
        es = sw.diagonalize(helpers.random_hermitian(rng, 8))
        for k in range(8):
            col = es.eigenvectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12 * abs(pivot)

    @pytest.mark.parametrize("spec", ["ring:8", "tree:3", "lattice:4x4", "hypercube:3"])
    def test_sign_fix_is_the_per_column_rotation_bit_for_bit(self, spec):
        # These eigenvectors vanish on some leading nodes, so the pivot is not always row 0.
        _, vectors = np.linalg.eigh(helpers.ham(spec))
        vectors = vectors.astype(complex)
        vectors[:, 1] = 0.0  # a column without a significant component keeps its phase
        expected = vectors.copy()
        for k in range(vectors.shape[1]):
            col = vectors[:, k]
            idx = np.flatnonzero(np.abs(col) > 1e-12)
            if idx.size:
                expected[:, k] = col * (np.conj(col[idx[0]]) / abs(col[idx[0]]))
        assert spectral._fix_eigenvector_signs(vectors).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_eigenvectors_are_the_complex_sign_fix_bit_for_bit(self, complex_entries):
        # A real H is diagonalized and checked in real arithmetic, and cast to complex
        # at the end; its columns must equal those of the complex formula, which
        # complex input still runs.  A real H's imaginary parts are zeros of either
        # sign under the complex formula, so zeros are compared without their sign there.
        rng = np.random.default_rng(3)
        hs = [helpers.random_hermitian(rng, dim, complex_entries) for dim in (1, 2, 5, 17, 40) for _ in range(4)]
        if not complex_entries:
            hs += [helpers.ham(spec) for spec in ("ring:64", "hypercube:6", "lattice:8x8", "tree:5", "complete:8")]
        for h in hs:
            _, vectors = np.linalg.eigh(h)
            vectors = vectors.astype(complex)
            significant = np.abs(vectors) > 1e-12
            pivots = vectors[significant.argmax(axis=0), np.arange(vectors.shape[1])]
            pivots[~significant.any(axis=0)] = 1.0
            expected = vectors * (np.conj(pivots) / np.abs(pivots))
            got = sw.diagonalize(h).eigenvectors
            assert got.dtype == complex and got.shape == expected.shape
            if complex_entries:
                assert got.tobytes() == expected.tobytes()
            else:
                assert (got.view(np.float64) + 0.0).tobytes() == (expected.view(np.float64) + 0.0).tobytes()

    def test_non_hermitian_rejected(self):
        with pytest.raises(SpectralError, match="Hermitian"):
            sw.diagonalize(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(SpectralError, match="cap"):
            sw.diagonalize(np.eye(600))
        sw.diagonalize(np.eye(600), dim_cap=600)  # raised cap allows it


class TestSectors:
    def test_ring6_tau1_sector_sizes(self):
        sd = helpers.sectors("ring:6", 1.0)
        assert sorted(sd.degeneracies.tolist()) == [1, 1, 2, 2]

    def test_ring6_revival_tau_2pi_single_sector(self):
        sd = helpers.sectors("ring:6", TWO_PI)
        assert len(sd.degeneracies) == 1
        assert sd.degeneracies[0] == 6
        # everything folds to phase 0: U(2*pi) is the identity
        u = sw.evolution_operator(helpers.eigensystem("ring:6"), TWO_PI)
        np.testing.assert_allclose(u, np.eye(6), atol=1e-12)

    def test_off_resonance_sector_count_equals_distinct_levels(self):
        es = helpers.eigensystem("tree:2")
        for tau in (0.7, 1.1, 1.9):
            sd = sw.fold_sectors(es, tau)
            assert not sw.is_resonant(sd)
            assert len(sd.degeneracies) == len(sw.energy_sectors(es).degeneracies) == 5

    def test_wraparound_seam_merges(self):
        h = np.diag([1e-10, TWO_PI - 1e-10])
        sd = sw.fold_sectors(sw.diagonalize(h), 1.0)
        assert len(sd.degeneracies) == 1
        assert sd.phases[0] == pytest.approx(1e-10, abs=1e-12)

    def test_completeness_and_unitarity(self):
        for spec, tau in (("ring:6", 1.0), ("tree:2", 0.7), ("square_center", 1.3)):
            es = helpers.eigensystem(spec)
            sd = sw.fold_sectors(es, tau)
            dim = es.dim
            projectors = helpers.sector_projectors(sd)
            total = sum(projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            u = sum(np.exp(-1j * phase) * p for phase, p in zip(sd.phases, projectors))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)
            np.testing.assert_allclose(u, helpers.expm_evolution(helpers.ham(spec), tau), atol=1e-8)

    def test_sector_structure_tau_independent_off_resonance(self):
        es = helpers.eigensystem("square_center")
        a = sw.fold_sectors(es, 0.59)
        b = sw.fold_sectors(es, 1.23)
        assert not sw.is_resonant(a) and not sw.is_resonant(b)
        assert sorted(a.degeneracies.tolist()) == sorted(b.degeneracies.tolist())

    def test_energy_sectors_sum_to_dim(self):
        sd = helpers.sectors("tree:2")
        assert sum(sd.degeneracies) == 7
        assert sd.degeneracies.tolist() == [1, 1, 3, 1, 1]

    def test_near_degenerate_warning(self):
        h = np.diag([0.0, 5e-8])
        sd = sw.fold_sectors(sw.diagonalize(h), 1.0)
        assert len(sd.degeneracies) == 2
        assert any("near-degenerate" in w for w in sd.warnings)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            sw.fold_sectors(helpers.eigensystem("ring:3"), 0.0)

    def test_an_overflowing_phase_raises(self):
        # ring:6's levels at |E| = 2 overflow at tau = 1e308, and their phases would be NaN
        es = helpers.eigensystem("ring:6")
        h = helpers.ham("ring:6")
        for build in (lambda: sw.fold_sectors(es, 1e308), lambda: sw.evolution_operator(es, 1e308),
                      lambda: sw.DetectionSetup(hamiltonian=h, detect_state=sw.localized_state(6, 0),
                                                initial_state=sw.localized_state(6, 1), tau=1e308)):
            with pytest.raises(SpectralError, match=r"E \* tau overflows at tau=1e\+308"):
                build()
        assert np.isfinite(sw.fold_sectors(es, 1e307).phases).all()
        assert np.isfinite(sw.evolution_operator(es, 1e307)).all()

    @pytest.mark.parametrize("spec", ["hypercube:3", "hypercube:4", "ring:8", "lattice:4x4", "tree:3", "complete:5"])
    def test_a_fold_never_splits_a_level(self, spec):
        # The eigenvalues of one level differ in their last bits (hypercube:3's level at 1 holds
        # 0.9999999999999998, 1.0000000000000002 and 1.0000000000000007), so from a tau of about
        # 5e6 on their phases lie more than the phase tolerance apart.
        es = helpers.eigensystem(spec)
        levels = sw.energy_sectors(es)
        for tau in np.geomspace(1e6, 1e9, 31):
            sd = sw.fold_sectors(es, tau)
            sector_of = np.repeat(np.arange(sd.bounds.size - 1), sd.degeneracies)
            for a, b in zip(levels.bounds[:-1], levels.bounds[1:]):
                members = np.flatnonzero(np.isin(sd.energies, levels.energies[a:b]))
                assert members.size == b - a and np.unique(sector_of[members]).size == 1, (tau, a, b)

    def test_a_level_kept_whole_takes_its_least_phase(self):
        # two eigenvalues 5e-9 apart are one level; at tau 10 their phases lie 5e-8 apart
        es = sw.EigenSystem(eigenvalues=np.array([0.5, 0.5 + 5e-9, 2.0]), eigenvectors=np.eye(3, dtype=complex))
        sd = sw.fold_sectors(es, 10.0)
        assert sd.degeneracies.tolist() == [1, 2]  # the level at 2 has phase 20 - 6 pi, below 5
        assert sd.phases[1] == 5.0 and sd.energies[1:].tolist() == [0.5, 0.5 + 5e-9]
        assert not sw.is_resonant(sd)


class TestResonances:
    def test_ring6_periods_up_to_seven(self):
        listing = sw.resonant_periods(helpers.eigensystem("ring:6"), 7.0)
        periods = [p.tau for p in helpers.resonance_entries(listing)]
        # gaps of {-2,-1,1,2} are {1,2,3,4}: base periods 2*pi/k plus harmonics
        expected = sorted({TWO_PI / 4, TWO_PI / 3, TWO_PI / 2, TWO_PI, 2 * TWO_PI / 3, 3 * TWO_PI / 4})
        np.testing.assert_allclose(periods, expected, atol=1e-9)

    def test_pairs_annotated_with_level_indices(self):
        periods = helpers.resonance_entries(sw.resonant_periods(helpers.eigensystem("ring:6"), 1.6))
        assert len(periods) == 1  # only 2*pi/4 from the extreme levels
        assert periods[0].pairs == ((0, 3, 1),)

    def test_complete2_from_gap_two(self):
        periods = helpers.resonance_entries(sw.resonant_periods(helpers.eigensystem("complete:2"), 7.0))
        np.testing.assert_allclose([p.tau for p in periods], [math.pi, TWO_PI], atol=1e-12)

    def test_single_level_system_empty(self):
        g = sw.WeightedGraph(1, (), (), (), (0.0,))
        assert helpers.resonance_entries(sw.resonant_periods(sw.diagonalize(sw.hamiltonian(g, 1.0)), 10.0)) == []
        # three degenerate states are still one level
        degenerate = sw.EigenSystem(eigenvalues=np.full(3, 1.5), eigenvectors=np.eye(3, dtype=complex))
        assert helpers.resonance_entries(sw.resonant_periods(degenerate, 10.0)) == []

    @pytest.mark.parametrize("tau_max", [TWO_PI / 3, math.pi, TWO_PI])
    def test_bound_on_a_harmonic_is_included(self, tau_max):
        es = helpers.eigensystem("ring:6")
        periods = helpers.resonance_entries(sw.resonant_periods(es, tau_max))
        assert periods == helpers.oracle_resonant_periods(es, tau_max)
        assert periods[-1].tau == pytest.approx(tau_max, abs=1e-12)
        assert len(periods[-1].pairs) > 1

    def test_chained_near_coincidence_starts_a_new_entry(self):
        # gaps 1, 2 - 2e and 1 - 2e put periods at 2*pi, 2*pi (1 + e) (k = 2) and
        # 2*pi (1 + 2e): each within 1e-9 * tau of the one before, the third not of the first
        e = 0.7e-9
        es = sw.EigenSystem(eigenvalues=np.array([0.0, 1.0, 2.0 - 2 * e]),
                            eigenvectors=np.eye(3, dtype=complex))
        periods = helpers.resonance_entries(sw.resonant_periods(es, 7.0))
        assert periods == helpers.oracle_resonant_periods(es, 7.0)
        assert [p.pairs for p in periods] == [((0, 2, 1),), ((0, 1, 1), (0, 2, 2)), ((1, 2, 1),)]
        assert periods[1].tau == TWO_PI
        assert 0 < periods[2].tau - TWO_PI < 2e-9 * TWO_PI

    def test_equal_periods_keep_the_pair_order(self):
        # equally spaced levels: many pairs share each period exactly
        es = sw.EigenSystem(eigenvalues=np.arange(12.0), eigenvectors=np.eye(12, dtype=complex))
        periods = helpers.resonance_entries(sw.resonant_periods(es, 20.0))
        assert periods == helpers.oracle_resonant_periods(es, 20.0)
        assert max(len(p.pairs) for p in periods) > 10

    def test_harmonic_count_at_the_floating_point_edge(self):
        # with tau_max * (1 + 1e-12) within a few ulps of k * base, the quotient
        # limit / base rounds across the integer either way: the count must follow
        # the test k * base <= limit
        rng = np.random.default_rng(1)
        floor_missed = set()
        for _ in range(300):
            gap, k = rng.uniform(0.1, 5.0), int(rng.integers(1, 50))
            es = sw.EigenSystem(eigenvalues=np.array([0.0, gap]), eigenvectors=np.eye(2, dtype=complex))
            base = TWO_PI / gap
            tau_max = k * base / (1.0 + 1e-12)
            for step in range(-3, 4):
                bound = float(tau_max + step * np.spacing(tau_max))
                periods = helpers.resonance_entries(sw.resonant_periods(es, bound))
                assert periods == helpers.oracle_resonant_periods(es, bound)
                floor_count = math.floor(bound * (1.0 + 1e-12) / base)
                if floor_count != len(periods):
                    floor_missed.add(floor_count > len(periods))
        assert floor_missed == {True, False}

    def test_plain_python_types(self):
        es = helpers.eigensystem("ring:64")
        listing = sw.resonant_periods(es, 20.0)
        # fixed column dtypes, whose ``tolist`` gives plain floats and ints
        assert listing.taus.dtype == np.float64
        assert all(col.dtype == np.intp for col in (listing.starts, listing.l0, listing.l1, listing.k))
        periods = helpers.resonance_entries(listing)
        assert periods == helpers.oracle_resonant_periods(es, 20.0)
        assert all(type(p.tau) is float for p in periods)
        assert all(type(x) is int for p in periods for pair in p.pairs for x in pair)
        json.dumps([[p.tau, p.pairs] for p in periods])  # a numpy integer would raise

    def test_irrational_gap_families_do_not_coincide(self):
        es = sw.diagonalize(np.diag([0.0, 1.0, math.sqrt(2.0)]))
        periods = helpers.resonance_entries(sw.resonant_periods(es, TWO_PI))
        taus = [p.tau for p in periods]
        assert len(taus) == len(set(np.round(taus, 9)))
        gaps = {1.0, math.sqrt(2.0), math.sqrt(2.0) - 1.0}
        expected = sorted(k * TWO_PI / g for g in gaps for k in range(1, 20) if k * TWO_PI / g <= TWO_PI * (1 + 1e-12))
        np.testing.assert_allclose(taus, expected, atol=1e-9)

    @pytest.mark.parametrize("tau_max", [1e300, 1e18, math.inf])
    def test_period_count_beyond_any_array_raises(self, tau_max):
        with pytest.raises(SpectralError, match="do not fit in an array"):
            sw.resonant_periods(helpers.eigensystem("ring:6"), tau_max)

    def test_period_listing_beyond_memory_raises(self):
        # 2.2e17 periods pass the index guard; allocating their arrays fails at once
        with pytest.raises(SpectralError, match="do not fit in memory"):
            sw.resonant_periods(helpers.eigensystem("ring:6"), 1e17)

    def test_is_resonant_ring6(self):
        es = helpers.eigensystem("ring:6")
        assert sw.is_resonant(sw.fold_sectors(es, math.pi))
        assert sw.is_resonant(sw.fold_sectors(es, TWO_PI))
        assert sw.is_resonant(sw.fold_sectors(es, math.pi / 2))
        assert not sw.is_resonant(sw.fold_sectors(es, 1.0))
        assert not sw.is_resonant(sw.fold_sectors(es, 0.3))  # below the first resonance
        assert not sw.is_resonant(sw.energy_sectors(es))  # an energy grouping folds nothing

    def test_dedup_merges_pairs_sharing_a_period(self):
        # gaps 1 and 2 share tau = 2*pi: level pair entries accumulate
        es = sw.diagonalize(np.diag([0.0, 1.0, 2.0]))
        periods = helpers.resonance_entries(sw.resonant_periods(es, TWO_PI))
        at_2pi = [p for p in periods if abs(p.tau - TWO_PI) < 1e-9]
        assert len(at_2pi) == 1
        assert set(at_2pi[0].pairs) == {(0, 1, 1), (1, 2, 1), (0, 2, 2)}
