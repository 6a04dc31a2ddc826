"""Shrinking the problem: the quotient graph of a binary tree.

All detectable dynamics lives in the detector-symmetric subspace, so the
Hamiltonian can be folded onto the equivalence classes of nodes.  For a
seven-node binary tree the folded system has 3, 5 or 6 nodes depending on
where the detector sits, and reproduces the full-space detection
probabilities exactly.
"""

import numpy as np

import strobewalk as sw

graph = sw.build_named("tree:2")
h = sw.hamiltonian(graph, gamma=1.0)
sd_full = sw.energy_sectors(sw.diagonalize(h))
group = sw.automorphisms(graph)
print(f"tree:2 has {graph.node_count} nodes; automorphism group order {group.order}")

for detect_node, name in ((0, "root"), (1, "middle"), (3, "leaf")):
    psi_d = sw.localized_state(7, detect_node)
    stab = sw.stabilizer(group, psi_d)
    q = sw.symmetrize(h, stab, psi_d)
    qgraph = sw.quotient_graph(q)

    print(f"\n=== detector on the {name} (node {detect_node}) ===")
    print(f"stabilizer order {stab.order}; {q.original_dim} nodes -> {q.reduced_dim} classes")
    for c, members in enumerate(q.classes):
        mark = "  <- detector" if c == q.detect_class else ""
        print(f"  class {c}: nodes {list(members)}{mark}")
    print("  folded couplings (negated weights):")
    for i, j, w in zip(qgraph.tails.tolist(), qgraph.heads.tolist(), qgraph.weights.tolist()):
        print(f"    {i} -- {j}  weight {w:.6f}")
    ev = q.eigensystem.eigenvalues
    print(f"  reduced spectrum: {np.round(ev, 6)}")
    saturated, sym_dark = sw.saturation_check(sd_full, stab, psi_d)
    print(f"  symmetric dark states: {sym_dark}  (bound exact: {saturated})")

    rows = []
    for r in range(7):
        full = sw.pdet_spectral(sd_full, psi_d, sw.localized_state(7, r)).pdet
        reduced = sw.pdet_symmetrized(q, sw.localized_state(7, r)).pdet
        rows.append((r, full, reduced))
    print("  start  full-space  quotient")
    for r, full, reduced in rows:
        print(f"    |{r}>  {full:10.6f}  {reduced:10.6f}")
