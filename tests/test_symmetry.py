"""Automorphism search, stabilizers, orbit ranks, projectors and bounds."""

import dataclasses
import inspect
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

import strobewalk as sw
from strobewalk import symmetry
from strobewalk.errors import AsymmetricStateError, GroupSearchError, StateError

import helpers

TWO_PI = 2.0 * math.pi


class TestPermutation:
    """A permutation is a row of node images, ``r -> image[r]``, acting on states as
    ``(S psi)[image[r]] = psi[r]``; the helpers the tests compose, invert and apply them with."""

    def test_compose_applies_right_factor_first(self):
        assert helpers.compose((1, 2, 0), (0, 2, 1)) == (1, 0, 2)

    def test_inverse(self):
        p = np.array([2, 0, 3, 1])
        assert helpers.compose(p, helpers.inverse(p)) == (0, 1, 2, 3)
        assert helpers.compose(helpers.inverse(p), p) == (0, 1, 2, 3)

    def test_matrix_and_apply_agree(self):
        p = np.array([1, 2, 0])
        vec = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(helpers.matrix(p) @ vec, helpers.apply(p, vec))
        np.testing.assert_array_equal(helpers.apply(p, vec), [3.0, 1.0, 2.0])

    def test_rejects_non_bijections(self):
        # every row must be a permutation of 0..n-1, in the automorphism group and the stabilizer alike:
        # a repeated image, a missing one, a negative one, a bad second row, a short row
        for images in ([[0, 0, 1]], [[0, 1, 3]], [[-1, 0, 1]], [[0, 1, 2], [2, 2, 1]], [[0, 1]]):
            with pytest.raises(ValueError):
                sw.SymmetryGroup(graph=helpers.graph("ring:3"), generators=images, order=6)
            with pytest.raises(ValueError):
                sw.StabilizerGroup(images=images, phases=[1.0] * len(images), order=6, dim=3)
        assert sw.StabilizerGroup(images=[[2, 0, 1]], phases=[1.0], order=3, dim=3).images.tolist() == [[2, 0, 1]]

    def test_generator_phases_follow_the_image_convention(self):
        # the shift r -> r + 1 takes the k = 1 wave exp(2 pi i r / 6) to exp(-2 pi i / 6) times itself
        psi_d = helpers.ring_eigenstate(6, 1)
        shift = np.roll(np.arange(6), -1)
        stab = sw.stabilizer(helpers.group("ring:6"), psi_d)
        assert stab.images.shape == (len(stab.phases), 6)
        for image, phase in zip(stab.images, stab.phases):
            np.testing.assert_allclose(helpers.apply(image, psi_d), phase * psi_d, atol=1e-12)
        rotated = dataclasses.replace(stab, images=[shift], phases=[np.exp(-1j * TWO_PI / 6)])
        assert not rotated.has_trivial_phases
        assert symmetry._fixing_phases(rotated.images, psi_d, 1e-10) == pytest.approx([np.exp(-1j * TWO_PI / 6)])
        np.testing.assert_allclose(sw.symmetry_projector(rotated) @ psi_d, psi_d, atol=1e-12)

    def test_invariant_span_follows_the_image_convention(self):
        # (S psi)[image[r]] = psi[r]: the span of psi's orbit under S is the span of its images
        shift = np.roll(np.arange(6), -1)
        stab = sw.StabilizerGroup(images=[shift], phases=[1.0], order=6, dim=6)
        # neighbor pairs span all but the alternating state; every other node gives two states
        for nodes, rank in [([0, 1], 5), ([0, 1, 3], 6), ([0, 2, 4], 2)]:
            orbit = [helpers.uniform_state(6, nodes)]
            for _ in range(5):
                orbit.append(helpers.apply(shift, orbit[-1]))
            assert sw.orbit_rank(stab, orbit[0]) == np.linalg.matrix_rank(np.array(orbit)) == rank

    @pytest.mark.parametrize("field", ["generators", "images", "phases"])
    def test_the_arrays_are_read_only(self, field):
        group = helpers.group("ring:6")
        owner = group if field == "generators" else sw.stabilizer(group, helpers.ring_eigenstate(6, 1))
        array = getattr(owner, field)
        with pytest.raises(ValueError):
            array[0] = array[-1]


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "spec, order",
        [("ring:8", 16), ("tree:2", 8), ("complete:4", 24), ("cross:4", 24),
         ("square_center", 8), ("hypercube:3", 48)],
    )
    def test_group_orders(self, spec, order):
        assert helpers.group(spec).order == order

    @pytest.mark.parametrize("spec", ["ring:5", "ring:6", "tree:2", "cross:3",
                                      "square_center", "complete:4", "lattice:3x3"])
    def test_matches_brute_force(self, spec):
        g = helpers.graph(spec)
        if g.node_count > 8:
            pytest.skip("brute force capped at 8 nodes")
        expected = set(helpers.brute_force_automorphisms(g))
        got = set(helpers.group_elements(helpers.group(spec)))
        assert got == expected

    def test_weights_break_symmetry(self):
        # ring:4 with one heavier link keeps only the reflection through it.
        g = helpers.edge_graph(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        group = sw.automorphisms(g)
        assert set(helpers.group_elements(group)) == {(0, 1, 2, 3), (1, 0, 3, 2)}
        assert set(helpers.brute_force_automorphisms(g)) == {(0, 1, 2, 3), (1, 0, 3, 2)}

    def test_onsite_energy_breaks_symmetry(self):
        g = helpers.edge_graph(6, [(r, (r + 1) % 6, 1.0) for r in range(6)], onsite=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        group = sw.automorphisms(g)
        # only the identity and the reflection fixing node 0 survive
        assert group.order == 2
        assert set(helpers.group_elements(group)) == {(0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1)}

    def test_group_axioms_by_enumeration(self):
        elements = helpers.group_elements(helpers.group("tree:2"))
        images = set(elements)
        assert tuple(range(7)) in images
        for p in elements:
            assert helpers.inverse(p) in images
            for q in elements:
                assert helpers.compose(p, q) in images

    def test_elements_commute_with_hamiltonian(self):
        for spec in ("ring:8", "tree:2", "square_center"):
            h = helpers.ham(spec)
            for p in helpers.group_elements(helpers.group(spec)):
                m = helpers.matrix(p)
                assert np.max(np.abs(m @ h - h @ m)) < 1e-10

    def test_generators_generate_the_group(self):
        group = helpers.group("hypercube:3")
        gens = group.generators.tolist()
        known = {tuple(range(8))}
        frontier = list(known)
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    prod = tuple(g[i] for i in a)
                    if prod not in known:
                        known.add(prod)
                        fresh.append(prod)
            frontier = fresh
        assert known == set(helpers.group_elements(group))

    def test_deterministic_lexicographic_order(self):
        images = helpers.group_elements(helpers.group("ring:6"))
        assert images == sorted(images)
        assert images[0] == tuple(range(6))

    def test_node_cap(self):
        g = sw.build_named("lattice:9x9")
        with pytest.raises(GroupSearchError, match="cap"):
            sw.automorphisms(g)


class TestStabilizer:
    def test_ring8_detect_node_is_identity_plus_reflection(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        assert stab.order == 2
        images = set(helpers.group_elements(stab))
        reflection = tuple((-r) % 8 for r in range(8))
        assert images == {tuple(range(8)), reflection}
        assert all(phase == pytest.approx(1.0) for _, phase in helpers.close_group(stab))

    def test_tree_root_keeps_the_full_group(self):
        assert helpers.node_stabilizer("tree:2", 0).order == 8

    def test_tree_leaf_keeps_only_far_pair_swap(self):
        stab = helpers.node_stabilizer("tree:2", 3)
        assert stab.order == 2
        swap56 = tuple(5 if r == 6 else 6 if r == 5 else r for r in range(7))
        assert set(helpers.group_elements(stab)) == {tuple(range(7)), swap56}

    def test_ring_eigenstate_translations_with_phases(self):
        length = 6
        for k_d in (1, 2, 4, 5):
            psi_d = helpers.ring_eigenstate(length, k_d)
            stab = sw.stabilizer(helpers.group("ring:6"), psi_d)
            assert stab.order == length  # translations only, no reflections
            for image, phase in helpers.close_group(stab):
                shift = image[0]
                assert image == tuple((r + shift) % length for r in range(length))
                expected = np.exp(-1j * TWO_PI * k_d * shift / length)
                assert phase == pytest.approx(expected, abs=1e-10)

    def test_ring_top_band_eigenstate_keeps_reflections(self):
        psi_d = helpers.ring_eigenstate(6, 3)
        stab = sw.stabilizer(helpers.group("ring:6"), psi_d)
        assert stab.order == 12
        assert not stab.has_trivial_phases  # odd translations flip the sign

    def test_localized_states_have_trivial_phases(self):
        stab = helpers.node_stabilizer("square_center", 4)
        assert stab.has_trivial_phases
        assert stab.order == 8


class TestOrbitRank:
    def test_ring8_ranks(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        ranks = [sw.orbit_rank(stab, helpers.basis("ring:8", r)) for r in range(8)]
        assert ranks == [1, 2, 2, 2, 1, 2, 2, 2]

    def test_cross_rank_four(self):
        stab = helpers.node_stabilizer("cross:4", 0)
        assert sw.orbit_rank(stab, helpers.basis("cross:4", 1)) == 4

    def test_superposition_can_have_lower_rank(self):
        stab = helpers.node_stabilizer("cross:4", 0)
        u = helpers.uniform_state(5, [1, 2, 3, 4])
        assert sw.orbit_rank(stab, u) == 1

    def test_square_corner_detector_equivalences(self):
        # detector in a corner: the two adjacent corners are equivalent,
        # the opposite corner and the center are unique
        stab = helpers.node_stabilizer("square_center", 0)
        assert stab.order == 2
        ranks = [sw.orbit_rank(stab, sw.localized_state(5, r)) for r in range(5)]
        assert ranks == [1, 2, 1, 2, 1]


class TestProjector:
    def test_singleton_group_gives_identity(self):
        stab = sw.StabilizerGroup(images=(), phases=(), order=1, dim=4)
        np.testing.assert_allclose(sw.symmetry_projector(stab), np.eye(4), atol=1e-15)

    def test_ring8_two_element_projector(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        reflection = next(p for p in helpers.group_elements(stab) if p != tuple(range(8)))
        expected = (np.eye(8) + helpers.matrix(reflection)) / 2.0
        np.testing.assert_allclose(sw.symmetry_projector(stab), expected, atol=1e-15)

    @pytest.mark.parametrize("spec, node", [("ring:8", 0), ("tree:2", 1), ("square_center", 4)])
    def test_idempotent_hermitian_commutes_fixes_detect(self, spec, node):
        stab = helpers.node_stabilizer(spec, node)
        p = sw.symmetry_projector(stab)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        h = helpers.ham(spec)
        assert np.max(np.abs(p @ h - h @ p)) < 1e-10
        psi_d = helpers.basis(spec, node)
        np.testing.assert_allclose(p @ psi_d, psi_d, atol=1e-10)

    def test_phased_projector_fixes_eigenstate_detect(self):
        psi_d = helpers.ring_eigenstate(6, 3)
        stab = sw.stabilizer(helpers.group("ring:6"), psi_d)
        p = sw.symmetry_projector(stab)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p @ psi_d, psi_d, atol=1e-10)
        # acting on a localized state it reproduces the alternating-sign wave
        for r in range(6):
            expected = ((-1) ** r / math.sqrt(6)) * psi_d
            np.testing.assert_allclose(p @ helpers.basis("ring:6", r), expected, atol=1e-10)

    def test_bright_states_are_symmetric(self):
        sd = helpers.sectors("tree:2", 0.7)
        for node in (0, 1, 3):
            stab = helpers.node_stabilizer("tree:2", node)
            p = sw.symmetry_projector(stab)
            for _, beta in helpers.bright_states(sd, helpers.basis("tree:2", node)):
                np.testing.assert_allclose(p @ beta, beta, atol=1e-10)


class TestSymmetricPart:
    def test_localized_gives_uniform_orbit(self):
        stab = helpers.node_stabilizer("cross:4", 0)
        u, weight = sw.symmetric_part(stab, helpers.basis("cross:4", 1))
        assert weight == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(u, helpers.uniform_state(5, [1, 2, 3, 4]), atol=1e-12)

    def test_symmetric_input_is_a_fixed_point(self):
        stab = helpers.node_stabilizer("cross:4", 0)
        u0 = helpers.uniform_state(5, [1, 2, 3, 4])
        u, weight = sw.symmetric_part(stab, u0)
        assert weight == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(u, u0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 3, math.pi / 2, 2.0, math.pi])
    def test_relative_phase_weight_on_the_cross(self, alpha):
        stab = helpers.node_stabilizer("cross:4", 0)
        psi = np.zeros(5, dtype=complex)
        psi[1] = 1.0 / math.sqrt(2.0)
        psi[2] = np.exp(1j * alpha) / math.sqrt(2.0)
        expected = (1.0 + math.cos(alpha)) / 4.0
        if expected < 1e-12:
            with pytest.raises(AsymmetricStateError):
                sw.symmetric_part(stab, psi)
        else:
            _, weight = sw.symmetric_part(stab, psi)
            assert weight == pytest.approx(expected, abs=1e-12)

    def test_antisymmetric_state_raises(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        psi = np.zeros(8, dtype=complex)
        psi[1] = 1.0 / math.sqrt(2.0)
        psi[7] = -1.0 / math.sqrt(2.0)
        with pytest.raises(AsymmetricStateError, match="orthogonal to the symmetric subspace"):
            sw.symmetric_part(stab, psi)


class TestEquivalentDarkBasis:
    def test_pair_gives_the_antisymmetric_combination(self):
        r0 = sw.localized_state(4, 1)
        r1 = sw.localized_state(4, 2)
        (dark,) = sw.equivalent_dark_basis([r0, r1])
        np.testing.assert_allclose(dark, (r1 - r0) / math.sqrt(2.0), atol=1e-15)

    def test_single_state_gives_nothing(self):
        assert sw.equivalent_dark_basis([sw.localized_state(3, 0)]) == []

    def test_cross_triple_is_orthonormal_and_dark(self):
        orbit = [sw.localized_state(5, r) for r in (1, 2, 3, 4)]
        dark = sw.equivalent_dark_basis(orbit)
        assert len(dark) == 3
        mat = np.column_stack(dark)
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(3), atol=1e-12)
        u = helpers.uniform_state(5, [1, 2, 3, 4])
        np.testing.assert_allclose(mat.conj().T @ u, 0.0, atol=1e-12)
        for state in dark:
            setup = sw.DetectionSetup(
                hamiltonian=helpers.ham("cross:4"),
                detect_state=helpers.basis("cross:4", 0),
                initial_state=state,
                tau=1.1,
            )
            amps = sw.first_detection_amplitudes(setup, 50)
            assert np.max(np.abs(amps)) < 1e-12

    def test_rejects_non_orthonormal_input(self):
        with pytest.raises(StateError, match="orthonormal"):
            sw.equivalent_dark_basis([sw.localized_state(3, 0), sw.localized_state(3, 0)])


class TestUpperBound:
    def test_hypercube_neighbor_and_opposite(self):
        stab = helpers.node_stabilizer("hypercube:3", 0)
        assert sw.upper_bound(stab, helpers.basis("hypercube:3", 1)) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert sw.upper_bound(stab, helpers.basis("hypercube:3", 7)) == pytest.approx(1.0, abs=1e-12)

    def test_complete_graph_reciprocal(self):
        stab = helpers.node_stabilizer("complete:8", 0)
        assert sw.upper_bound(stab, helpers.basis("complete:8", 1)) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_bound_dominates_exact_value(self):
        sd = helpers.sectors("square_center")
        for d in range(5):
            stab = helpers.node_stabilizer("square_center", d)
            psi_d = helpers.basis("square_center", d)
            for r in range(5):
                psi_in = helpers.basis("square_center", r)
                bound = sw.upper_bound(stab, psi_in)
                exact = sw.pdet_spectral(sd, psi_d, psi_in).pdet
                assert exact <= bound + 1e-10


class TestStabilizerInvariance:
    def test_amplitudes_pick_up_the_element_phase(self):
        rng = np.random.default_rng(21)
        psi_d = helpers.ring_eigenstate(6, 1)
        stab = sw.stabilizer(helpers.group("ring:6"), psi_d)
        psi = helpers.random_state(rng, 6)
        base = sw.first_detection_amplitudes(
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:6"), detect_state=psi_d,
                              initial_state=psi, tau=0.9), 20)
        for image, phase in helpers.close_group(stab)[:4]:
            moved = helpers.apply(image, psi)
            amps = sw.first_detection_amplitudes(
                sw.DetectionSetup(hamiltonian=helpers.ham("ring:6"), detect_state=psi_d,
                                  initial_state=moved, tau=0.9), 20)
            np.testing.assert_allclose(amps, phase * base, atol=1e-10)

    def test_equivalent_states_share_detection_statistics(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        reflection = next(p for p in helpers.group_elements(stab) if p != tuple(range(8)))
        psi = helpers.basis("ring:8", 1)
        base = sw.first_detection_amplitudes(
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:8"), detect_state=helpers.basis("ring:8", 0),
                              initial_state=psi, tau=0.9), 20)
        partner = sw.first_detection_amplitudes(
            sw.DetectionSetup(hamiltonian=helpers.ham("ring:8"), detect_state=helpers.basis("ring:8", 0),
                              initial_state=helpers.apply(reflection, psi), tau=0.9), 20)
        np.testing.assert_allclose(np.abs(partner) ** 2, np.abs(base) ** 2, atol=1e-10)


class TestSaturation:
    @pytest.mark.parametrize(
        "node, saturates, symmetric_dark",
        [(0, True, 0), (1, False, 1), (3, False, 1)],
    )
    def test_tree_detector_placements(self, node, saturates, symmetric_dark):
        sd = helpers.sectors("tree:2", 0.7)
        stab = helpers.node_stabilizer("tree:2", node)
        got = sw.saturation_check(sd, stab, helpers.basis("tree:2", node))
        assert got == (saturates, symmetric_dark)

    def test_dark_tolerance_sets_the_bright_count(self):
        # ring:64 with on-site energies uniform in [-1, 1] from default_rng(0): the group is
        # trivial, and two sectors have detector weights between 1e-20 and 1e-12
        onsite = tuple(np.random.default_rng(0).uniform(-1.0, 1.0, 64))
        g = dataclasses.replace(helpers.graph("ring:64"), onsite=onsite)
        sd = sw.energy_sectors(sw.diagonalize(sw.hamiltonian(g, 1.0)))
        stab = sw.stabilizer(sw.automorphisms(g), sw.localized_state(64, 0))
        psi_d = sw.localized_state(64, 0)
        assert sw.saturation_check(sd, stab, psi_d) == (False, 2)
        assert sw.saturation_check(sd, stab, psi_d, dark_tol=1e-20) == (True, 0)

    def test_saturated_case_equals_projector_weight(self):
        rng = np.random.default_rng(4)
        sd = helpers.sectors("tree:2", 0.7)
        stab = helpers.node_stabilizer("tree:2", 0)
        p = sw.symmetry_projector(stab)
        psi_d = helpers.basis("tree:2", 0)
        for _ in range(5):
            psi = helpers.random_state(rng, 7)
            weight = float(np.real(np.vdot(psi, p @ psi)))
            assert sw.pdet_spectral(sd, psi_d, psi).pdet == pytest.approx(weight, abs=1e-10)


class TestNodeOrbits:
    def test_ring8_orbits_around_detector(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        assert sw.node_orbits(stab) == [(0,), (1, 7), (2, 6), (3, 5), (4,)]

    def test_complete8_two_orbits(self):
        stab = helpers.node_stabilizer("complete:8", 0)
        assert sw.node_orbits(stab) == [(0,), (1, 2, 3, 4, 5, 6, 7)]

    @pytest.mark.parametrize("length, wave", [(12, 1), (12, 3), (12, 6), (16, 4)])
    def test_phased_ring_orbits_match_the_elements(self, length, wave):
        # the stabilizer of a ring eigenstate holds rotations: generator cycles as long as the ring
        stab = sw.stabilizer(helpers.group(f"ring:{length}"), helpers.ring_eigenstate(length, wave))
        assert sw.node_orbits(stab) == helpers.brute_force_orbits(helpers.group_elements(stab), length)

    def test_one_long_cycle_and_a_fixed_point(self):
        n = 257
        rotation = [*((r + 1) % 256 for r in range(256)), 256]
        stab = sw.StabilizerGroup(images=[rotation], phases=[1.0], order=256, dim=n)
        assert sw.node_orbits(stab) == [tuple(range(256)), (256,)]
        assert stab.symmetric_dim == 2

    @pytest.mark.parametrize("name", ["falling", "zigzag", "shuffled"])
    def test_path_shaped_orbit_in_few_rounds(self, monkeypatch, name):
        # two involutions whose orbit graph is one path through all nodes: labels that fall
        # along the path away from its least member took one round per hop to follow
        n = 257
        order = {"falling": [0, *range(n - 1, 0, -1)],
                 "zigzag": [*range(0, n, 2), *range(n - 2, 0, -2)],
                 "shuffled": np.random.default_rng(3).permutation(n).tolist()}[name]
        images = [list(range(n)), list(range(n))]
        for hop, (u, v) in enumerate(zip(order, order[1:])):
            images[hop % 2][u], images[hop % 2][v] = v, u
        stab = sw.StabilizerGroup(images=images, phases=[1.0, 1.0], order=2 * n, dim=n)

        class CountingNumpy:
            compares = 0

            def __getattr__(self, attr):
                return getattr(np, attr)

            def array_equal(self, a, b):
                CountingNumpy.compares += 1
                return np.array_equal(a, b)

        monkeypatch.setattr(symmetry, "np", CountingNumpy())
        assert sw.node_orbits(stab) == [tuple(range(n))]
        assert CountingNumpy.compares <= 4 * math.log2(n)


class TestLatticeBounds:
    def test_odd_torus_has_planar_symmetries_only(self):
        # 5x5 periodic lattice: 25 translations times the 8 point symmetries.
        g = sw.build_named("lattice:5x5")
        group = sw.automorphisms(g)
        assert group.order == 200
        stab = sw.stabilizer(group, sw.localized_state(25, 0))
        assert stab.order == 8
        # axis and diagonal neighbors have 2d = 4 equivalent partners,
        # off-axis nodes have 8 (a strictly stronger bound)
        for x, y, rank in [(1, 0, 4), (0, 2, 4), (1, 1, 4), (2, 2, 4), (2, 1, 8), (1, 2, 8)]:
            node = y * 5 + x
            assert sw.orbit_rank(stab, sw.localized_state(25, node)) == rank
            assert sw.upper_bound(stab, sw.localized_state(25, node)) == pytest.approx(1.0 / rank)

    def test_4x4_torus_is_secretly_the_4_cube(self):
        # C4 x C4 with periodic wrap is isomorphic to the 4-dimensional
        # hypercube, so the search finds far more than the 8 planar point
        # symmetries and the node orbits follow Hamming weights.
        torus = sw.build_named("lattice:4x4")
        cube = sw.build_named("hypercube:4")
        np.testing.assert_allclose(
            np.linalg.eigvalsh(sw.hamiltonian(torus, 1.0)),
            np.linalg.eigvalsh(sw.hamiltonian(cube, 1.0)),
            atol=1e-12,
        )
        assert helpers.group("lattice:4x4").order == 384  # = 2^4 * 4!
        stab = helpers.node_stabilizer("lattice:4x4", 0)
        assert stab.order == 24
        assert sorted(len(o) for o in sw.node_orbits(stab)) == [1, 1, 4, 4, 6]
        # the antipodal node (2,2) is fixed by every stabilizer element
        antipode = sw.localized_state(16, 2 * 4 + 2)
        assert sw.orbit_rank(stab, antipode) == 1
        assert sw.upper_bound(stab, antipode) == pytest.approx(1.0)


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize("spec", ["ring:5", "ring:6", "ring:7", "ring:8", "tree:2", "cross:3",
                                      "cross:4", "cross:5", "square_center", "complete:4",
                                      "complete:5", "complete:6"])
    def test_every_detector_node(self, spec):
        helpers.assert_search_matches_brute_force(helpers.graph(spec))

    def test_weighted_graph_with_onsite_energies(self):
        # ring:6 with two heavy links and one raised node: only the mirror through 0 and 3 survives
        g = helpers.edge_graph(6, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (0, 5, 2.0)],
                               onsite=(0.5, 0.0, 0.0, 0.0, 0.0, 0.0))
        helpers.assert_search_matches_brute_force(g)
        assert sw.automorphisms(g).order == 2

    def test_zero_weight_edge_is_still_an_edge(self):
        # a path 0-1-2 whose second link has weight 0 has no symmetry
        g = helpers.edge_graph(3, [(0, 1, 1.0), (1, 2, 0.0)])
        helpers.assert_search_matches_brute_force(g)
        assert sw.automorphisms(g).order == 1


class TestDetectorFirstBase:
    """A group searched with the detector first in its base carries the detector's stabilizer."""

    @pytest.mark.parametrize("spec, node", [("tree:5", 0), ("tree:5", 17), ("hypercube:6", 3),
                                            ("lattice:8x8", 9), ("ring:64", 7), ("complete:8", 3)])
    def test_stabilizer_from_the_chain_needs_no_search(self, monkeypatch, spec, node):
        expected = helpers.node_stabilizer(spec, node)
        group = sw.automorphisms(helpers.graph(spec), base_point=node)
        assert group.order == helpers.group(spec).order
        monkeypatch.setattr(symmetry, "_Search", None)  # any further search would fail
        stab = sw.stabilizer(group, sw.localized_state(group.dim, node))
        assert stab.order == expected.order
        assert sw.node_orbits(stab) == sw.node_orbits(expected)

    def test_a_node_fixed_by_refinement_keeps_the_whole_group(self):
        # the tree root is alone in its refined cell, so every generator fixes it
        group = sw.automorphisms(helpers.graph("tree:5"), base_point=0)
        assert group._fixed == (0, len(group.generators), 2**31)

    def test_other_detectors_take_their_own_search(self):
        group = sw.automorphisms(helpers.graph("ring:6"), base_point=0)
        assert sw.stabilizer(group, sw.localized_state(6, 2)).order == 2
        assert sw.stabilizer(group, helpers.ring_eigenstate(6, 1)).order == 6
        assert sw.stabilizer(group, helpers.ring_eigenstate(6, 3)).order == 12

    def test_base_point_out_of_range(self):
        with pytest.raises(StateError, match="out of range"):
            sw.automorphisms(helpers.graph("ring:6"), base_point=6)


class TestClosedFormOrders:
    """Orders far beyond what listing the elements could reach."""

    @pytest.mark.parametrize(
        "spec, order",
        [("tree:5", 2**31), ("hypercube:6", 2**6 * math.factorial(6)),
         ("complete:12", math.factorial(12)), ("lattice:8x8", 8 * 8 * 8), ("ring:64", 128)],
    )
    def test_group_and_detector_stabilizer_orders(self, spec, order):
        group = helpers.group(spec)
        assert group.order == order
        n = group.dim
        stab = sw.stabilizer(group, sw.localized_state(n, 0))
        # node 0 is the tree root (fixed by every automorphism); the other graphs are vertex-transitive
        assert stab.order == (order if spec.startswith("tree") else order // n)
        for p in group.generators:
            m = helpers.matrix(p)
            h = helpers.ham(spec)
            assert np.max(np.abs(m @ h - h @ m)) == 0.0

    def test_tree5_stabilizer_orbits_are_generations(self):
        stab = helpers.node_stabilizer("tree:5", 0)
        assert sw.node_orbits(stab) == [tuple(range(2**k - 1, 2 ** (k + 1) - 1)) for k in range(6)]

    def test_ring6_eigenstate_stabilizer_orders(self):
        orders = [sw.stabilizer(helpers.group("ring:6"), helpers.ring_eigenstate(6, k)).order
                  for k in range(6)]
        assert orders == [12, 6, 6, 12, 6, 6]


class TestGeneratorRoutesMatchElementSums:
    """The generator-based projector and orbit rank against sums over every element."""

    CASES = [("ring:6", 3), ("ring:6", 1), ("ring:8", None), ("tree:2", None), ("hypercube:3", None)]

    @staticmethod
    def _stab(spec, wave):
        if wave is None:
            return helpers.node_stabilizer(spec, 0)
        return sw.stabilizer(helpers.group(spec), helpers.ring_eigenstate(helpers.graph(spec).node_count, wave))

    @pytest.mark.parametrize("spec, wave", CASES)
    def test_projector_is_the_phase_weighted_group_average(self, spec, wave):
        stab = self._stab(spec, wave)
        expected = sum(np.conj(phase) * helpers.matrix(p) for p, phase in helpers.close_group(stab)) / stab.order
        np.testing.assert_allclose(sw.symmetry_projector(stab), expected, atol=1e-12)

    @pytest.mark.parametrize("spec, wave", CASES)
    def test_orbit_rank_is_the_rank_of_the_orbit(self, spec, wave):
        stab = self._stab(spec, wave)
        rng = np.random.default_rng(8)
        n = stab.dim
        states = [helpers.random_state(rng, n), sw.localized_state(n, 1), helpers.uniform_state(n, [0, 1])]
        for psi in states:
            orbit = np.array([helpers.apply(p, psi) for p in helpers.group_elements(stab)])
            assert sw.orbit_rank(stab, psi) == np.linalg.matrix_rank(orbit, tol=1e-8)

    def test_elements_close_the_generators_with_phases(self):
        stab = self._stab("ring:6", 3)
        psi_d = helpers.ring_eigenstate(6, 3)
        assert len(helpers.close_group(stab)) == stab.order == 12
        for p, phase in helpers.close_group(stab):
            np.testing.assert_allclose(helpers.apply(p, psi_d), phase * psi_d, atol=1e-12)


class TestWeakRefinement:
    """Graphs on which refinement alone leaves cells that are not orbits."""

    @pytest.mark.parametrize(
        "build, order, stab_order, orbit_sizes",
        [(helpers.petersen, 120, 12, [1, 3, 6]),
         # one cell of 9 non-neighbors of node 0, but two orbits of 3 and 6
         (helpers.shrikhande, 192, 12, [1, 6, 3, 6]),
         # the same parameters as Shrikhande, and distance-transitive
         (lambda: helpers.rook(4), 1152, 72, [1, 6, 9]),
         # cubic and asymmetric
         (helpers.frucht, 1, 1, [1] * 12)],
        ids=["petersen", "shrikhande", "rook:4", "frucht"],
    )
    def test_orders_and_orbits_at_node_0(self, build, order, stab_order, orbit_sizes):
        g = build()
        detector = sw.localized_state(g.node_count, 0)
        group = sw.automorphisms(g)
        assert group.order == order
        shared = sw.automorphisms(g, base_point=0)
        assert shared.order == order
        for stab in (sw.stabilizer(group, detector), sw.stabilizer(shared, detector)):
            assert stab.order == stab_order
            assert [len(o) for o in sw.node_orbits(stab)] == orbit_sizes
            assert np.all(stab.images[:, 0] == 0)


class TestPastTheNodeCap:
    """Closed-form orders of graphs at and above the default cap, with the detector first in the base."""

    CASES = [("tree:6", 2**63, 2**63),  # node 0 is the root, fixed by every automorphism
             ("hypercube:8", 2**8 * math.factorial(8), math.factorial(8)),
             ("lattice:20x20", 8 * 400, 8),
             ("ring:256", 512, 2),
             ("complete:64", math.factorial(64), math.factorial(63))]

    @pytest.mark.parametrize("spec, order, stab_order", CASES, ids=[spec for spec, _, _ in CASES])
    def test_orders_and_commuting_generators(self, spec, order, stab_order):
        g = helpers.graph(spec)
        group = sw.automorphisms(g, node_cap=10**5, base_point=0)
        assert group.order == order
        stab = sw.stabilizer(group, sw.localized_state(g.node_count, 0))
        assert stab.order == stab_order
        h = helpers.ham(spec)
        for img in group.generators:
            # S H S^T = H reads H[img[r], img[c]] == H[r, c]
            np.testing.assert_array_equal(h[np.ix_(img, img)], h)


class TestSymmetricSubspace:
    """The stabilizer computes its projector and symmetric dimension once and owns them."""

    NODE_CASES = [("tree:3", 0), ("tree:3", 4), ("ring:8", 0), ("lattice:5x5", 6), ("complete:8", 3),
                  ("square_center", 4)]

    @staticmethod
    def _eigenstate_stabilizer(k):
        return sw.stabilizer(helpers.group("ring:6"), helpers.ring_eigenstate(6, k))

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        builds = []
        build = symmetry.StabilizerGroup._subspace.func

        def counted(stab):
            builds.append(stab)
            return build(stab)

        prop = cached_property(counted)
        prop.__set_name__(symmetry.StabilizerGroup, "_subspace")
        monkeypatch.setattr(symmetry.StabilizerGroup, "_subspace", prop)
        return builds

    @pytest.mark.parametrize("spec, node", NODE_CASES)
    def test_trivial_phases_dimension_is_the_projector_trace(self, spec, node):
        stab = helpers.node_stabilizer(spec, node)
        assert stab.has_trivial_phases
        assert stab.symmetric_dim == round(np.trace(sw.symmetry_projector(stab)).real)
        assert stab.symmetric_dim == len(sw.node_orbits(stab))

    @pytest.mark.parametrize("k", range(6))
    def test_phased_dimension_is_the_projector_trace(self, k):
        stab = self._eigenstate_stabilizer(k)
        assert stab.has_trivial_phases == (k == 0)
        assert stab.symmetric_dim == round(np.trace(sw.symmetry_projector(stab)).real)

    def test_a_trivial_stabilizer_builds_one_projector_and_saturation_none(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        stab = sw.stabilizer(helpers.group("tree:3"), helpers.basis("tree:3", 1))
        psi_d = helpers.basis("tree:3", 1)
        sd = helpers.sectors("tree:3", 0.7)
        first = sw.saturation_check(sd, stab, psi_d)
        assert builds == []  # the orbit count gives the dimension
        p = sw.symmetry_projector(stab)
        bound = sw.upper_bound(stab, helpers.basis("tree:3", 3))
        assert sw.symmetry_projector(stab) is p
        assert sw.upper_bound(stab, helpers.basis("tree:3", 3)) == bound
        assert sw.saturation_check(sd, stab, psi_d) == first
        assert builds == [stab]

    def test_a_phased_stabilizer_builds_one_projector(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        stab = self._eigenstate_stabilizer(1)
        psi_d = helpers.ring_eigenstate(6, 1)
        sd = helpers.sectors("ring:6", 0.9)
        saturation = sw.saturation_check(sd, stab, psi_d)
        p = sw.symmetry_projector(stab)
        sw.upper_bound(stab, helpers.basis("ring:6", 2))
        sw.symmetric_part(stab, psi_d)
        assert sw.saturation_check(sd, stab, psi_d) == saturation
        assert sw.symmetry_projector(stab) is p
        assert builds == [stab]

    @pytest.mark.parametrize("phased", [False, True])
    def test_projector_is_read_only(self, phased):
        stab = self._eigenstate_stabilizer(1) if phased else helpers.node_stabilizer("ring:8", 0)
        p = sw.symmetry_projector(stab)
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 0.0

    def test_the_group_is_its_four_fields(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        assert [f.name for f in dataclasses.fields(stab)] == ["images", "phases", "order", "dim"]
        sw.node_orbits(stab)
        # a copy with other generators labels its own orbits, not the cached ones
        rotation = [(r + 1) % 8 for r in range(8)]
        rotated = dataclasses.replace(stab, images=[rotation], phases=[1.0], order=8)
        assert sw.node_orbits(rotated) == [tuple(range(8))]
        assert rotated.symmetric_dim == 1

    def test_removed_keywords_are_gone(self):
        assert "projector" not in inspect.signature(sw.upper_bound).parameters
        assert "projector" not in inspect.signature(sw.symmetric_part).parameters
        assert "require_normalized" not in inspect.signature(sw.as_state).parameters


class TestSearchArraysOnFirstUse:
    """``_Search`` builds its arcs and its weight matrix only when a search needs them."""

    LAZY = ("arcs", "weight")
    FAMILIES = ["tree:4", "hypercube:4", "lattice:5x5", "ring:16", "complete:8", "cross:5", "square_center"]

    @staticmethod
    def _recording(monkeypatch, eager: bool = False) -> list:
        searches = []

        class Recorded(symmetry._Search):
            def __init__(self, graph):
                super().__init__(graph)
                searches.append(self)
                if eager:
                    self.arcs, self.weight

        monkeypatch.setattr(symmetry, "_Search", Recorded)
        return searches

    def test_a_disordered_ring_builds_none(self, monkeypatch):
        searches = self._recording(monkeypatch)
        g = helpers.disordered("ring:64", 0)
        group = sw.automorphisms(g, base_point=0)
        assert group.order == 1
        assert sw.stabilizer(group, sw.localized_state(64, 0)).order == 1
        assert len(searches) == 1
        assert not set(self.LAZY) & vars(searches[0]).keys()

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_orders_and_generators_match_an_eager_search(self, spec, monkeypatch):
        g = helpers.graph(spec)
        lazy = [sw.automorphisms(g), sw.automorphisms(g, base_point=1)]
        searches = self._recording(monkeypatch, eager=True)
        eager = [sw.automorphisms(g), sw.automorphisms(g, base_point=1)]
        assert len(searches) == 2
        for a, b in zip(lazy, eager):
            assert a.order == b.order
            np.testing.assert_array_equal(a.generators, b.generators)
            assert a._fixed == b._fixed


class TestRefinementOnTheEdgeList:
    """A refinement round sums salts over the edge list read both ways, one salt per
    (distinct weight, color): its memory does not grow with the distinct weights, and
    every sum is exact, so no sum depends on the order of its terms."""

    @staticmethod
    def _distinct_weights() -> sw.WeightedGraph:
        # 2016 distinct weights, and degree 63, the most that the node cap allows
        g = helpers.graph("complete:64")
        return dataclasses.replace(g, weights=1.0 + np.arange(g.edge_count) / 4096)

    def test_memory_does_not_grow_with_the_distinct_weights(self):
        g = self._distinct_weights()
        tracemalloc.start()
        try:
            group = sw.automorphisms(g, base_point=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group.order == 1
        assert peak < 8e6

    def test_neighbor_sums_equal_the_integer_sums(self):
        g = self._distinct_weights()
        n = g.node_count
        search = symmetry._Search(g)
        colors = symmetry._dense_ranks(np.random.default_rng(30).integers(0, n, size=n))
        salt = search.arcs[-1]
        rank = {w: r for r, w in enumerate(sorted(set(g.weights.tolist())))}
        want = [0] * n
        for i, j, w in helpers.edge_triples(g):
            want[i] += int(salt[rank[w], colors[j]])
            want[j] += int(salt[rank[w], colors[i]])
        assert max(want) < 2**53
        assert search.neighbor_sums(colors).tolist() == want
