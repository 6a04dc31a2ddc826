"""First steps: the stroboscopic detection protocol on a ring.

A walker starts on node 1 of a six-site ring and a detector fires at node 0
every tau time units.  We iterate the protocol directly, compare the summed
first-detection probabilities with the closed-form spectral value, and list
the special detection periods where energy levels become indistinguishable
to the detector.
"""

import numpy as np

import strobewalk as sw

graph = sw.build_named("ring:6")
h = sw.hamiltonian(graph, gamma=1.0)
es = sw.diagonalize(h)
print("ring:6 energy levels:", np.round(es.eigenvalues, 6))

tau = 1.0
psi_d = sw.localized_state(6, 0)
psi_in = sw.localized_state(6, 1)
setup = sw.DetectionSetup(hamiltonian=h, detect_state=psi_d, initial_state=psi_in, tau=tau)

amps = sw.first_detection_amplitudes(setup, 12)
print("\nfirst detection probabilities F_n at tau =", tau)
for n, amp in enumerate(amps, start=1):
    print(f"  n={n:2d}  F_n = {abs(amp) ** 2:.6f}")

series = sw.pdet_series(setup)
sd = sw.fold_sectors(es, tau)
spectral = sw.pdet_spectral(sd, psi_d, psi_in)
print(f"\nseries total   : {series.estimate:.9f}  (n_used={series.n_used}, converged={series.converged})")
print(f"spectral total : {spectral.pdet:.9f}")
# The value 1/3 < 1: two of the four levels are doubly degenerate, and each
# degenerate level hides one dark state from the detector.
print(f"bright/dark    : {spectral.bright_dim}/{spectral.dark_dim}")

# The listing is a column table: entry e holds the level pairs
# starts[e]:starts[e + 1] of the columns l0, l1 and k.
print("\nresonant detection periods up to 7:")
listing = sw.resonant_periods(es, 7.0)
bounds = [*listing.starts.tolist(), listing.k.size]
for tau_c, a, b in zip(listing.taus.tolist(), bounds, bounds[1:]):
    rows = zip(listing.l0[a:b].tolist(), listing.l1[a:b].tolist(), listing.k[a:b].tolist())
    pairs = ", ".join(f"levels {l0}&{l1} (k={k})" for l0, l1, k in rows)
    print(f"  tau_c = {tau_c:.6f}  from {pairs}")

# At the full revival tau = 2*pi the evolution operator is the identity:
# the walker never moves, and only the initial overlap can ever be detected.
revival = 2.0 * np.pi
print(f"\nis_resonant(tau=2*pi): {sw.is_resonant(sw.fold_sectors(es, revival))}")
u = sw.evolution_operator(es, revival)
print(f"||U(2*pi) - identity||_max = {np.max(np.abs(u - np.eye(6))):.2e}")
