"""Detecting an energy eigenstate: symmetries that act with a phase.

When the detection state is a free-wave eigenstate of the ring rather than
a single node, translations no longer fix it exactly: they multiply it by a
unit phase.  Those phases enter the symmetry projector, and the detection
probability from any node collapses to exactly 1/L.
"""

import numpy as np

import strobewalk as sw

L = 6
graph = sw.build_named(f"ring:{L}")
h = sw.hamiltonian(graph, gamma=1.0)
es = sw.diagonalize(h)
group = sw.automorphisms(graph)

x = np.arange(L)
for k_d in (1, 3):
    psi_d = np.exp(1j * 2.0 * np.pi * k_d * x / L) / np.sqrt(L)
    stab = sw.stabilizer(group, psi_d)
    print(f"\n=== detection on the k = {k_d} free wave ===")
    print(f"stabilizer order {stab.order} of the {group.order} ring symmetries")
    print("  generator phases (shift -> phase):")
    for g, phase in enumerate(stab.phases):
        image = stab.images[g]
        kind = "shift" if image[1] == (image[0] + 1) % L else "reflected shift"
        print(f"    {kind:<15} by {image[0]}: {phase:.3f}")

    # The phased projector maps every node state onto the detection wave.
    projector = sw.symmetry_projector(stab)
    amp = projector @ sw.localized_state(L, 2)
    print(f"  projected |2> onto the wave with weight {np.linalg.norm(amp) ** 2:.6f} (1/L = {1 / L:.6f})")

    sd = sw.fold_sectors(es, 0.9)
    values = [sw.pdet_spectral(sd, psi_d, sw.localized_state(L, r)).pdet for r in range(L)]
    print(f"  pdet from each node: {np.round(values, 9)}")

    # Direct protocol check from one node; an eigenstate detector commutes
    # with the evolution, so everything happens at the first attempt.
    setup = sw.DetectionSetup(hamiltonian=h, detect_state=psi_d,
                              initial_state=sw.localized_state(L, 2), tau=0.9)
    amps = sw.first_detection_amplitudes(setup, 5)
    print(f"  |phi_1|^2 = {abs(amps[0]) ** 2:.9f}, later amplitudes <= {np.max(np.abs(amps[1:])):.1e}")
