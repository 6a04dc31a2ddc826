"""Symmetrized Hamiltonian construction and reduced-space detection values."""

import math

import numpy as np
import pytest

import strobewalk as sw
from strobewalk import quotient
from strobewalk.errors import NonLocalizedDetectionError

import helpers

S2 = math.sqrt(2.0)

# Reference symmetrized matrices for the two-generation tree (gamma = 1).
TREE_ROOT_HS = -np.array([[0, S2, 0], [S2, 0, S2], [0, S2, 0]])
TREE_MIDDLE_HS = -np.array(
    [
        [0, 1, 1, 0, 0],
        [1, 0, 0, S2, 0],
        [1, 0, 0, 0, S2],
        [0, S2, 0, 0, 0],
        [0, 0, S2, 0, 0],
    ]
)
TREE_LEAF_HS = -np.array(
    [
        [0, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 0, S2],
        [0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, S2, 0, 0, 0],
    ]
)


def tree_quotient(detect_node):
    stab = helpers.node_stabilizer("tree:2", detect_node)
    psi_d = helpers.basis("tree:2", detect_node)
    return sw.symmetrize(helpers.ham("tree:2"), stab, psi_d)


class TestSymmetrize:
    def test_tree_root_collapses_to_a_line(self):
        q = tree_quotient(0)
        np.testing.assert_allclose(q.h_s, TREE_ROOT_HS, atol=1e-12)
        assert list(q.classes) == [(0,), (1, 2), (3, 4, 5, 6)]
        assert q.detect_class == 0

    def test_tree_middle_five_classes(self):
        q = tree_quotient(1)
        np.testing.assert_allclose(q.h_s, TREE_MIDDLE_HS, atol=1e-12)
        assert list(q.classes) == [(0,), (1,), (2,), (3, 4), (5, 6)]
        assert q.detect_class == 1

    def test_tree_leaf_six_classes(self):
        q = tree_quotient(3)
        np.testing.assert_allclose(q.h_s, TREE_LEAF_HS, atol=1e-12)
        assert list(q.classes) == [(0,), (1,), (2,), (3,), (4,), (5, 6)]
        assert q.detect_class == 3

    def test_lift_columns_are_the_member_uniform_states(self):
        q = tree_quotient(0)
        np.testing.assert_allclose(q.lift[:, 1], helpers.uniform_state(7, [1, 2]).real, atol=1e-15)
        np.testing.assert_allclose(q.lift[:, 2], helpers.uniform_state(7, [3, 4, 5, 6]).real, atol=1e-15)
        gram = q.lift.T @ q.lift
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-14)

    def test_matrix_elements_match_lifted_hamiltonian(self):
        for node in (0, 1, 3):
            q = tree_quotient(node)
            h = helpers.ham("tree:2")
            np.testing.assert_allclose(q.lift.T @ h @ q.lift, q.h_s, atol=1e-10)

    def test_entries_are_scaled_member_pair_sums(self):
        # reference loop: sum over member pairs, scaled by 1/sqrt(|A| |B|)
        h = helpers.random_hermitian(np.random.default_rng(2), 7)
        for node in (0, 1, 3):
            stab = helpers.node_stabilizer("tree:2", node)
            q = sw.symmetrize(h, stab, helpers.basis("tree:2", node))
            for a, members_a in enumerate(q.classes):
                for b, members_b in enumerate(q.classes):
                    total = sum(h[x, y] for x in members_a for y in members_b)
                    expected = total / math.sqrt(len(members_a) * len(members_b))
                    assert q.h_s[a, b] == pytest.approx(expected, abs=1e-13)
            np.testing.assert_array_equal(q.h_s, q.h_s.conj().T)

    def test_projector_factorizes_through_the_lift(self):
        # P = L L^H, and the symmetrized matrix is P H P restricted to the classes.
        for node in (0, 1, 3):
            q = tree_quotient(node)
            stab = helpers.node_stabilizer("tree:2", node)
            p = sw.symmetry_projector(stab)
            np.testing.assert_allclose(q.lift @ q.lift.T, p, atol=1e-10)
            h = helpers.ham("tree:2")
            np.testing.assert_allclose(
                p @ h @ p, q.lift @ q.h_s @ q.lift.T, atol=1e-10
            )

    def test_internal_couplings_fold_into_onsite(self):
        # square_center detected at the center: the 4 corners form one class
        # whose internal cycle contributes an on-site energy of -2.
        stab = helpers.node_stabilizer("square_center", 4)
        q = sw.symmetrize(helpers.ham("square_center"), stab, helpers.basis("square_center", 4))
        assert q.reduced_dim == 2
        np.testing.assert_allclose(q.h_s, [[-2.0, -2.0], [-2.0, 0.0]], atol=1e-12)

    def test_delocalized_detection_rejected(self):
        stab = helpers.node_stabilizer("tree:2", 0)
        psi = helpers.uniform_state(7, [0, 1])
        with pytest.raises(NonLocalizedDetectionError):
            sw.symmetrize(helpers.ham("tree:2"), stab, psi)

    def test_integer_input_matrix_does_not_truncate_couplings(self):
        h = helpers.ham("tree:2").astype(int)
        stab = helpers.node_stabilizer("tree:2", 0)
        q = sw.symmetrize(h, stab, helpers.basis("tree:2", 0))
        assert q.h_s[0, 1] == pytest.approx(-S2, abs=1e-12)


class TestSymmetricEigensystem:
    def test_tree_root_three_levels_all_bright(self):
        q = tree_quotient(0)
        es = q.eigensystem
        np.testing.assert_allclose(es.eigenvalues, [-2.0, 0.0, 2.0], atol=1e-12)
        sd = sw.energy_sectors(es)
        detect = sw.localized_state(3, q.detect_class)
        assert len(helpers.bright_states(sd, detect)) == 3

    def test_tree_middle_five_nondegenerate_levels(self):
        q = tree_quotient(1)
        es = q.eigensystem
        np.testing.assert_allclose(es.eigenvalues, [-2.0, -S2, 0.0, S2, 2.0], atol=1e-12)

    def test_tree_leaf_spectrum_has_double_zero(self):
        q = tree_quotient(3)
        es = q.eigensystem
        np.testing.assert_allclose(es.eigenvalues, [-2.0, -S2, 0.0, 0.0, S2, 2.0], atol=1e-12)

    def test_lifted_eigenvectors_solve_the_full_problem(self):
        q = tree_quotient(1)
        es = q.eigensystem
        h = helpers.ham("tree:2")
        for k in range(q.reduced_dim):
            lifted = q.lift @ es.eigenvectors[:, k]
            residual = np.linalg.norm(h @ lifted - es.eigenvalues[k] * lifted)
            assert residual < 1e-9

    def test_spectrum_contained_in_full_spectrum(self):
        full = helpers.eigensystem("tree:2").eigenvalues
        for node in (0, 1, 3):
            reduced = tree_quotient(node).eigensystem.eigenvalues
            remaining = list(full)
            for e in reduced:
                match = min(range(len(remaining)), key=lambda i: abs(remaining[i] - e))
                assert abs(remaining[match] - e) < 1e-9
                remaining.pop(match)


class TestPdetSymmetrized:
    def test_tree_leaf_values_with_the_halving_subtlety(self):
        q = tree_quotient(3)
        assert sw.pdet_symmetrized(q, helpers.basis("tree:2", 5)).pdet == pytest.approx(0.4, abs=1e-12)
        # the class state (|5>+|6>)/sqrt(2) carries twice the localized value
        u5 = helpers.uniform_state(7, [5, 6])
        assert sw.pdet_symmetrized(q, u5).pdet == pytest.approx(0.8, abs=1e-12)

    def test_tree_middle_and_root_reference_values(self):
        assert sw.pdet_symmetrized(tree_quotient(1), helpers.basis("tree:2", 0)).pdet == pytest.approx(0.5, abs=1e-12)
        assert sw.pdet_symmetrized(tree_quotient(0), helpers.basis("tree:2", 3)).pdet == pytest.approx(0.25, abs=1e-12)

    def test_matches_full_space_for_every_localized_pair(self):
        sd = helpers.sectors("tree:2")
        for node in range(7):
            stab = helpers.node_stabilizer("tree:2", node)
            psi_d = helpers.basis("tree:2", node)
            q = sw.symmetrize(helpers.ham("tree:2"), stab, psi_d)
            for r in range(7):
                full = sw.pdet_spectral(sd, psi_d, helpers.basis("tree:2", r)).pdet
                reduced = sw.pdet_symmetrized(q, helpers.basis("tree:2", r)).pdet
                assert reduced == pytest.approx(full, abs=1e-9)

    def test_asymmetric_component_is_discarded_and_recorded(self):
        q = tree_quotient(0)
        # mix the symmetric uniform pair state with an antisymmetric part
        psi = (helpers.uniform_state(7, [1, 2]) + np.array([0, 1, -1, 0, 0, 0, 0]) / S2) / S2
        psi = psi / np.linalg.norm(psi)
        rep = sw.pdet_symmetrized(q, psi)
        assert rep.discarded_weight == pytest.approx(0.5, abs=1e-12)
        full = sw.pdet_spectral(helpers.sectors("tree:2"), helpers.basis("tree:2", 0), psi).pdet
        assert rep.pdet == pytest.approx(full, abs=1e-9)

    def test_degeneracies_reported_between_one_and_full(self):
        # the report's sectors are the energy levels of the quotient, which the caller holds
        q = tree_quotient(3)
        rep = sw.pdet_symmetrized(q, helpers.basis("tree:2", 0))
        sd = sw.energy_sectors(q.eigensystem)
        assert sd.degeneracies.tolist() == [1, 1, 2, 1, 1]
        assert {l for l, _ in rep.per_sector} | set(rep.excluded_sectors) == set(range(sd.degeneracies.size))

    def test_folding_at_a_period_matches_energy_grouping_off_resonance(self):
        q = tree_quotient(1)
        psi = helpers.basis("tree:2", 3)
        assert sw.pdet_symmetrized(q, psi, tau=0.7).pdet == pytest.approx(
            sw.pdet_symmetrized(q, psi).pdet, abs=1e-12
        )

    def test_the_system_is_diagonalized_once_for_all_inits(self, monkeypatch):
        calls = []
        original = quotient.diagonalize
        monkeypatch.setattr(quotient, "diagonalize", lambda h: calls.append(h) or original(h))
        q = sw.symmetrize(helpers.ham("tree:4"), helpers.node_stabilizer("tree:4", 0), helpers.basis("tree:4", 0))
        reports = [sw.pdet_symmetrized(q, helpers.basis("tree:4", r), tau=0.9) for r in (0, 1, 3, 7, 15)]
        assert q.eigensystem is q.eigensystem
        assert len(calls) == 1
        full = helpers.sectors("tree:4", 0.9)
        for r, report in zip((0, 1, 3, 7, 15), reports):
            expected = sw.pdet_spectral(full, helpers.basis("tree:4", 0), helpers.basis("tree:4", r)).pdet
            assert report.pdet == pytest.approx(expected, abs=1e-12)


class TestWeightedEndToEnd:
    """Non-unit weights through file I/O, symmetry search and folding.

    A six-ring with the two links (1,2) and (4,5) doubled keeps exactly the
    reflection through node 0 and the half-turn shift; the quotient of the
    detector at node 0 is a four-node path with couplings (sqrt(2), 2,
    sqrt(2)) and spectrum +-(sqrt(3)+-1).
    """

    @staticmethod
    def weighted_ring():
        edges = ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 2.0), (0, 5, 1.0))
        return helpers.edge_graph(6, edges)

    def test_symmetries_respect_the_weights(self):
        g = sw.load_graph(sw.save_graph(self.weighted_ring()))
        group = sw.automorphisms(g)
        assert set(helpers.group_elements(group)) == {
            (0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1), (3, 4, 5, 0, 1, 2), (3, 2, 1, 0, 5, 4)}

    def test_quotient_path_and_spectrum(self):
        g = self.weighted_ring()
        h = sw.hamiltonian(g, 1.0)
        stab = sw.stabilizer(sw.automorphisms(g), sw.localized_state(6, 0))
        assert stab.order == 2
        q = sw.symmetrize(h, stab, sw.localized_state(6, 0))
        graph = sw.quotient_graph(q)
        assert dict(enumerate(q.classes)) == {0: (0,), 1: (1, 5), 2: (2, 4), 3: (3,)}
        assert graph.weights.tolist() == pytest.approx([S2, 2.0, S2], abs=1e-12)
        s3 = math.sqrt(3.0)
        np.testing.assert_allclose(
            q.eigensystem.eigenvalues,
            [-(s3 + 1), -(s3 - 1), s3 - 1, s3 + 1], atol=1e-9)

    def test_values_match_and_saturate_the_bound(self):
        g = self.weighted_ring()
        h = sw.hamiltonian(g, 1.0)
        sd = sw.energy_sectors(sw.diagonalize(h))
        psi_d = sw.localized_state(6, 0)
        stab = sw.stabilizer(sw.automorphisms(g), psi_d)
        q = sw.symmetrize(h, stab, psi_d)
        expected = [1.0, 0.5, 0.5, 1.0, 0.5, 0.5]
        for r, value in enumerate(expected):
            psi_in = sw.localized_state(6, r)
            assert sw.pdet_spectral(sd, psi_d, psi_in).pdet == pytest.approx(value, abs=1e-9)
            assert sw.pdet_symmetrized(q, psi_in).pdet == pytest.approx(value, abs=1e-9)
            assert sw.upper_bound(stab, psi_in) == pytest.approx(value, abs=1e-9)


class TestQuotientGraph:
    def test_tree_root_line_with_sqrt2_links(self):
        q = tree_quotient(0)
        graph = sw.quotient_graph(q)
        assert graph.node_count == 3
        assert {(i, j) for i, j, _ in helpers.edge_triples(graph)} == {(0, 1), (1, 2)}
        for w in graph.weights.tolist():
            assert w == pytest.approx(S2, abs=1e-12)
        assert dict(enumerate(q.classes)) == {0: (0,), 1: (1, 2), 2: (3, 4, 5, 6)}

    def test_graph_reproduces_the_reduced_hamiltonian(self):
        for node in (0, 1, 3):
            q = tree_quotient(node)
            graph = sw.quotient_graph(q)
            np.testing.assert_allclose(sw.hamiltonian(graph, 1.0), q.h_s, atol=1e-12)

    def test_onsite_carries_class_internal_couplings(self):
        stab = helpers.node_stabilizer("square_center", 4)
        q = sw.symmetrize(helpers.ham("square_center"), stab, helpers.basis("square_center", 4))
        graph = sw.quotient_graph(q)
        assert graph.onsite.tolist() == [-2.0, 0.0]

    def test_round_trips_through_the_file_format(self):
        q = tree_quotient(3)
        graph = sw.quotient_graph(q)
        assert sw.load_graph(sw.save_graph(graph)) == graph

    def test_ring8_quotient_is_a_path(self):
        stab = helpers.node_stabilizer("ring:8", 0)
        q = sw.symmetrize(helpers.ham("ring:8"), stab, helpers.basis("ring:8", 0))
        graph = sw.quotient_graph(q)
        assert dict(enumerate(q.classes)) == {0: (0,), 1: (1, 7), 2: (2, 6), 3: (3, 5), 4: (4,)}
        assert {(i, j) for i, j, _ in helpers.edge_triples(graph)} == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_complete8_two_classes(self):
        stab = helpers.node_stabilizer("complete:8", 0)
        q = sw.symmetrize(helpers.ham("complete:8"), stab, helpers.basis("complete:8", 0))
        assert q.reduced_dim == 2
        graph = sw.quotient_graph(q)
        # 7 equivalent neighbors: coupling sqrt(7), internal K7 folds to onsite -6
        np.testing.assert_allclose(sw.hamiltonian(graph, 1.0),
                                   [[0.0, -math.sqrt(7.0)], [-math.sqrt(7.0), -6.0]], atol=1e-12)


class TestQuotientGraphAgainstNestedLoops:
    """``quotient_graph`` against the class-pair loop of ``helpers.oracle_quotient_graph``, bit for bit."""

    CASES = [(lambda: helpers.graph("tree:4"), 0), (lambda: helpers.graph("tree:4"), 9),
             (lambda: helpers.graph("lattice:6x6"), 7),
             (lambda: helpers.disordered("ring:16", 3), 0),
             (lambda: helpers.disordered("ring:16", 3, symmetric_about=5), 5),
             (helpers.shrikhande, 0)]

    @pytest.mark.parametrize("build, node", CASES,
                             ids=["tree:4/0", "tree:4/9", "lattice:6x6/7", "disordered-ring:16/0",
                                  "mirrored-ring:16/5", "shrikhande/0"])
    def test_edges_onsite_labels_and_class_map(self, build, node):
        g = build()
        psi_d = sw.localized_state(g.node_count, node)
        stab = sw.stabilizer(sw.automorphisms(g, base_point=node), psi_d)
        q = sw.symmetrize(sw.hamiltonian(g, 1.0), stab, psi_d)
        graph = sw.quotient_graph(q)
        assert graph == helpers.oracle_quotient_graph(q)
        # the classes are the orbits in order, one per reduced dimension, and partition the nodes
        assert list(q.classes) == sw.node_orbits(stab) and len(q.classes) == q.reduced_dim
        assert sorted(m for members in q.classes for m in members) == list(range(g.node_count))
        assert graph.edge_count > 0
