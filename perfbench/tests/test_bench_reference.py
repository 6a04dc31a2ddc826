"""The reference module against closed forms and brute force on small graphs."""

import itertools
import math

import numpy as np
import pytest

import reference as ref


def _unit(n, node):
    v = np.zeros(n)
    v[node] = 1.0
    return v


def _brute_force_order(spec):
    n, edges = ref.named_graph(spec)
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((p[i], p[j])) in edge_set for i, j in edges)
        for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("spec", ["ring:5", "ring:6", "complete:4", "cross:4", "square_center",
                                  "tree:2", "hypercube:2"])
def test_group_order_closed_forms_match_brute_force(spec):
    assert ref.group_order(spec) == _brute_force_order(spec)


@pytest.mark.parametrize("spec,detect", [("tree:2", 0), ("tree:3", 0), ("hypercube:3", 0),
                                         ("hypercube:4", 5), ("cross:4", 0), ("cross:6", 0)])
def test_detection_tables(spec, detect):
    n, edges = ref.named_graph(spec)
    pdet, bright = ref.Spectrum(ref.hamiltonian(n, edges)).detection(_unit(n, detect), 1.0)
    table = [ref.table_pdet(spec, detect, r) for r in range(n)]
    assert np.allclose(pdet, table, atol=1e-12)
    assert math.isclose(pdet.sum(), len(bright), abs_tol=1e-10)


@pytest.mark.parametrize("spec", ["ring:7", "lattice:5x5", "complete:5", "square_center"])
def test_sum_of_pdet_is_bright_dimension(spec):
    n, edges = ref.named_graph(spec)
    spectrum = ref.Spectrum(ref.hamiltonian(n, edges))
    pdet, bright = spectrum.detection(_unit(n, 0), 0.9)
    assert math.isclose(pdet.sum(), len(bright), abs_tol=1e-10)
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in pdet)
    for r in range(n):
        assert math.isclose(spectrum.pdet_state(_unit(n, 0), _unit(n, r), 0.9), pdet[r], abs_tol=1e-12)


def test_resonance_count_of_two_levels():
    # Levels -1 and +1: resonant at tau = pi k, three of them in (0, 10].
    spectrum = ref.Spectrum(ref.hamiltonian(2, [(0, 1)]))
    assert spectrum.resonances(0.0, 10.0) == (3, 3)
    assert spectrum.resonances(math.pi, 10.0) == (2, 2)


def test_tail_steps_match_a_direct_protocol_run():
    n, edges = ref.named_graph("ring:8")
    spectrum = ref.Spectrum(ref.hamiltonian(n, edges))
    tau, detect = 0.8, 0
    pdet, _ = spectrum.detection(_unit(n, detect), tau)
    steps = ref.tail_steps(spectrum, detect, np.eye(n), tau, pdet, 1e-6, 20000)
    u = spectrum.evolution(tau)
    for r in (1, 3):
        psi = _unit(n, r).astype(complex)
        detected = 0.0
        for _ in range(steps[r]):
            psi = u @ psi
            detected += abs(psi[detect]) ** 2
            psi[detect] = 0.0
        assert pdet[r] - detected <= 1e-6 * pdet[r] + 1e-15
