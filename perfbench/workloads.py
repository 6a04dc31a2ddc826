"""Seeded workload inputs: query lists, graph and state files, and their references.

Each workload is a fixed list of ``strobewalk`` queries that one pass sends
in order.  The seed picks detector and initial nodes, detection periods,
on-site disorder and superposition states; the graph shapes, the commands and
the number of queries of each kind do not depend on it, so the cost of a pass
stays about the same from seed to seed.  Every query carries the reference
values it is checked against, computed here by :mod:`reference`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("symmetric-families", "disordered-sweep", "protocol-series")

#: Relative tolerance of the program's series (its default) and the
#: multiple of it that a ``simulate`` estimate may differ from the reference.
SERIES_REL_TOL = 1e-6
SERIES_TOL_MULTIPLE = 20

#: The query that fails today: ``converged=false`` at the 100000-step cap.
KNOWN_FAILURE = ["simulate", "--graph", "ring:64", "--detect", "0", "--init", "32", "--tau", "1.0"]


@dataclass
class Query:
    qid: str
    argv: list[str]
    expect: dict

    @property
    def command(self) -> str:
        return self.argv[0]


def generate(workload: str, seed: int, inputs: Path) -> list[Query]:
    """The query list of one pass; files the queries read are written to ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "symmetric-families":
        queries = _symmetric_families(rng)
    elif workload == "disordered-sweep":
        queries = _disordered_sweep(rng, inputs)
    elif workload == "protocol-series":
        queries = _protocol_series(rng, inputs)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    queries += _probes(rng, inputs)
    for k, q in enumerate(queries):
        q.qid = f"q{k:03d}-{q.qid}"
    return queries


def _unit(n: int, node: int) -> np.ndarray:
    v = np.zeros(n)
    v[node] = 1.0
    return v


def _draw_tau(rng: random.Random, spec: ref.Spectrum, lo: float, hi: float, margin: float) -> float:
    """A detection period at least ``margin`` away from every resonance."""
    for _ in range(1000):
        tau = round(rng.uniform(lo, hi), 4)
        if spec.resonance_margin(tau) >= margin:
            return tau
    raise RuntimeError("no non-resonant detection period found")


def _analyze(qid, source, n, edges, onsite, detect, init, tau, family: str | None) -> Query:
    """``family`` is the generator spec whose closed forms apply, or None for a disordered graph."""
    spec = ref.Spectrum(ref.hamiltonian(n, edges, onsite))
    pdet, bright = spec.detection(_unit(n, detect), tau)
    inits = list(range(n)) if init == "all" else [init]
    expect = {
        "n": n,
        "inits": inits,
        "pdet": [float(pdet[r]) for r in inits],
        "bright": len(bright),
        "group_order": ref.group_order(family) if family else 1,
        "stabilizer_order": ref.stabilizer_order(family, detect) if family else 1,
        "tables": [ref.table_pdet(family, detect, r) if family else None for r in inits],
    }
    argv = ["analyze", "--graph", source, "--detect", str(detect), "--init", str(init), "--tau", str(tau)]
    return Query(qid, argv, expect)


# --------------------------------------------------------------------------
# symmetric-families: the symmetry layer dominates

# (graph, detector) for `analyze --init all`; None means a seeded node.
_ALL_INIT = [
    ("tree:2", 0), ("tree:3", 0),
    ("hypercube:3", None), ("hypercube:4", None), ("hypercube:5", None),
    ("lattice:5x5", None), ("lattice:6x6", None), ("lattice:8x8", None),
    ("ring:8", None), ("ring:16", None), ("ring:32", None), ("ring:64", None),
    ("complete:5", None), ("complete:6", None), ("complete:7", None), ("complete:8", None),
    ("cross:4", 0), ("cross:5", 0), ("cross:6", 0), ("cross:7", 0),
    ("square_center", 4),
]
_QUOTIENT = [
    ("tree:3", 0), ("hypercube:4", None), ("hypercube:5", None), ("lattice:6x6", None),
    ("lattice:8x8", None), ("ring:32", None), ("ring:64", None), ("complete:6", None),
    ("cross:6", 0), ("square_center", 4),
]
# Single-init `analyze`, many with the detector on another node than above.
# The counts shape the cost distribution of a pass: the median falls among
# the queries of about 20 ms and the 90th percentile among those of about
# 100 ms, each group of near-equal cost, rather than on a gap between groups.
_SINGLE_INIT = [(g, rule) for g, rule, count in (
    ("tree:2", "nonroot", 1), ("tree:3", "nonroot", 3), ("hypercube:3", "any", 3),
    ("ring:8", "any", 3), ("ring:16", "any", 6), ("complete:5", "any", 3), ("cross:5", "arm", 3),
    ("square_center", "corner", 3), ("ring:32", "any", 3),
    ("complete:6", "any", 3), ("cross:6", "arm", 3),  # about 20 ms
    ("hypercube:4", "any", 8), ("lattice:5x5", "any", 7), ("ring:64", "any", 3),
    ("lattice:6x6", "any", 6),  # about 100 ms
) for _ in range(count)]


def _pick_detector(rng: random.Random, source: str, n: int, rule) -> int:
    if isinstance(rule, int):
        return rule
    if rule in ("nonroot", "arm"):
        return rng.randrange(1, n)
    if rule == "corner":
        return rng.randrange(4)
    return rng.randrange(n)


def quotient_classes(source: str, detect: int) -> int | None:
    """Number of node orbits of the detector's stabilizer, where a closed form is known."""
    name, _, arg = source.partition(":")
    if name == "tree" and detect == 0:
        return int(arg) + 1
    if name == "hypercube":
        return int(arg) + 1
    if name == "ring" and int(arg) % 2 == 0:
        return int(arg) // 2 + 1
    if name == "complete" or (name == "cross" and detect == 0) or (name == "square_center" and detect == 4):
        return 2
    if name == "lattice":
        w = int(arg.split("x")[0])
        offsets = set()
        for dx in range(w):
            for dy in range(w):
                images = []
                for a, b in ((dx, dy), (dy, dx)):
                    for sa in (1, -1):
                        for sb in (1, -1):
                            images.append(((sa * a) % w, (sb * b) % w))
                offsets.add(min(images))
        return len(offsets)
    return None


def _quotient(rng: random.Random, source: str, rule) -> Query:
    n, edges = ref.named_graph(source)
    spec = ref.Spectrum(ref.hamiltonian(n, edges))
    detect = _pick_detector(rng, source, n, "any" if rule is None else rule)
    _, bright = spec.detection(_unit(n, detect), _draw_tau(rng, spec, 0.5, 2.5, 1e-3))
    expect = {
        "n": n,
        "detect": detect,
        "spectrum": spec.values.tolist(),
        "bright_energies": bright,
        "classes": quotient_classes(source, detect),
    }
    return Query(f"quotient-{source}", ["quotient", "--graph", source, "--detect", str(detect)], expect)


def _symmetric_families(rng: random.Random) -> list[Query]:
    queries = []
    for source, rule in _ALL_INIT:
        n, edges = ref.named_graph(source)
        spec = ref.Spectrum(ref.hamiltonian(n, edges))
        detect = _pick_detector(rng, source, n, "any" if rule is None else rule)
        tau = _draw_tau(rng, spec, 0.5, 2.5, 1e-3)
        queries.append(_analyze(f"analyze-all-{source}", source, n, edges, None, detect, "all", tau, source))
    for source, rule in _QUOTIENT:
        queries.append(_quotient(rng, source, rule))
    for source, rule in _SINGLE_INIT:
        n, edges = ref.named_graph(source)
        spec = ref.Spectrum(ref.hamiltonian(n, edges))
        detect = _pick_detector(rng, source, n, rule)
        init = rng.choice([r for r in range(n) if r != detect])
        tau = _draw_tau(rng, spec, 0.5, 2.5, 1e-3)
        queries.append(_analyze(f"analyze-one-{source}", source, n, edges, None, detect, init, tau, source))
    return queries


# --------------------------------------------------------------------------
# disordered-sweep: trivial groups, the spectral and detection layers dominate

_DISORDERED_SHAPES = [
    "tree:3", "tree:5", "hypercube:4", "hypercube:6", "lattice:6x6", "lattice:8x8",
    "ring:32", "ring:64", "complete:16", "cross:16", "square_center",
]
#: Realizations per shape: each gets `analyze` and `spectrum` at two periods,
#: the first also `resonances`.  The costly `resonances` stay above the 90th
#: percentile of a pass, which then falls among the twelve `analyze` queries
#: on 63- and 64-node graphs, and the median falls among the 24 `spectrum`
#: queries on those graphs; each group is of about the same cost.
_REALIZATIONS = 3
#: On-site energies are drawn uniformly from [-W/2, W/2].
DISORDER_WIDTH = 1.0
#: Every eigenvector keeps at least this squared amplitude on the detector,
#: far above the program's dark threshold of 1e-12.
MIN_DETECTOR_WEIGHT = 1e-8
#: Eigenvalues and eigenphases stay this far apart, so that no grouping
#: tolerance can decide a sector.
MIN_SEPARATION = 1e-5
RESONANCE_RANGE = (0.0, 20.0)


def _disordered_graph(rng: random.Random, shape: str):
    """Random on-site energies on a shape; redrawn until the reference is unambiguous."""
    n, edges = ref.named_graph(shape)
    for _ in range(50):
        onsite = [round(rng.uniform(-DISORDER_WIDTH / 2, DISORDER_WIDTH / 2), 12) for _ in range(n)]
        spec = ref.Spectrum(ref.hamiltonian(n, edges, onsite))
        detect = rng.randrange(n)
        taus = [round(rng.uniform(0.5, 2.5), 4) for _ in range(2)]
        if (spec.min_detector_weight(detect) >= MIN_DETECTOR_WEIGHT
                and spec.min_gap() >= MIN_SEPARATION
                and min(spec.resonance_margin(tau) for tau in taus) >= MIN_SEPARATION):
            return n, edges, onsite, spec, detect, taus
    raise RuntimeError(f"no admissible disorder realization for {shape}")


def _disordered_sweep(rng: random.Random, inputs: Path) -> list[Query]:
    queries = []
    for shape in _DISORDERED_SHAPES:
        for k in range(_REALIZATIONS):
            n, edges, onsite, spec, detect, taus = _disordered_graph(rng, shape)
            name = f"{shape.replace(':', '-')}-{k}"
            path = inputs / f"{name}.graph.json"
            doc = {"nodes": n, "edges": [list(e) for e in edges], "onsite": onsite}
            path.write_text(json.dumps(doc) + "\n")
            source = str(path)
            queries.append(_analyze(f"analyze-{name}", source, n, edges, onsite, detect, "all", taus[0], None))
            for tau in taus:
                queries.append(Query(f"spectrum-{name}", ["spectrum", "--graph", source, "--tau", str(tau)],
                                     {"values": spec.values.tolist(), "tau": tau}))
            if k == 0:
                queries.append(_resonances(f"resonances-{name}", source, spec))
    return queries


def _resonances(qid: str, source: str, spec: ref.Spectrum) -> Query:
    lo, hi = RESONANCE_RANGE
    triples, distinct = spec.resonances(lo, hi)
    return Query(qid, ["resonances", "--graph", source, "--tau", f"scan:{lo}:{hi}"],
                 {"levels": spec.levels().tolist(), "lo": lo, "hi": hi, "triples": triples, "distinct": distinct})


# --------------------------------------------------------------------------
# protocol-series: the step-by-step protocol in the detection layer

#: Exact protocol step counts (see reference.tail_steps) of the queries, in
#: narrow bands so every pass sums about the same number of steps.  Two
#: thirds of a pass are short series and one third long ones, so the median
#: query falls inside the short group and the 90th percentile inside the long
#: group, never on the edge between them.
SHORT_BANDS = tuple((lo, lo + 100) for lo in range(100, 600, 100))
LONG_BANDS = tuple((lo, lo + 200) for lo in range(1200, 2400, 200))
_SHORT_GRAPHS = (("tree:4", 0), ("hypercube:4", None), ("hypercube:5", None),
                 ("lattice:6x6", None), ("lattice:8x8", None), ("ring:16", None))
# (graph, detector rule, step band, initial state kind); a None detector is a seeded node.
_SERIES_SLOTS = (
    [(g, d, band, "node") for g, d in _SHORT_GRAPHS for band in SHORT_BANDS]
    + [(g, d, (100, 600), "state") for g, d in _SHORT_GRAPHS]
    + [(g, None, band, "node") for g in ("ring:32", "ring:32", "ring:16") for band in LONG_BANDS]
)
#: Detection periods keep this distance from every resonance.
SERIES_RESONANCE_MARGIN = 0.05
MIN_PDET = 0.01


def _superposition(rng: random.Random, n: int, detect: int) -> np.ndarray:
    nodes = rng.sample([r for r in range(n) if r != detect], 3)
    psi = np.zeros(n, dtype=complex)
    for r in nodes:
        psi[r] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return psi / np.linalg.norm(psi)


def _series_query(rng: random.Random, n: int, spec: ref.Spectrum, detect: int, band, superpose: bool):
    """Draw a period and an initial state whose exact step count lies in ``band``.

    Returns ``(tau, init, pdet)`` where ``init`` is a node or, with
    ``superpose``, a superposition state vector.
    """
    lo, hi = band
    d = _unit(n, detect)
    for _ in range(2000):
        tau = _draw_tau(rng, spec, 0.4, 2.5, SERIES_RESONANCE_MARGIN)
        if superpose:
            psi = _superposition(rng, n, detect)
            states, candidates = psi[:, None], [psi]
            pdet = np.array([spec.pdet_state(d, psi, tau)])
        else:
            candidates = [r for r in range(n) if r != detect]
            states = np.eye(n)[:, candidates]
            pdet = spec.detection(d, tau)[0][candidates]
        steps = ref.tail_steps(spec, detect, states, tau, pdet, SERIES_REL_TOL, hi)
        ok = [c for c in range(states.shape[1]) if pdet[c] >= MIN_PDET and lo <= steps[c] < hi]
        if ok:
            c = rng.choice(ok)
            return tau, candidates[c], float(pdet[c])
    raise RuntimeError(f"no detection period gives a step count in {band}")


def _simulate(qid, source, detect, init, tau, pdet) -> Query:
    argv = ["simulate", "--graph", source, "--detect", str(detect), "--init", str(init), "--tau", str(tau)]
    return Query(qid, argv, {"pdet": pdet, "rel_tol": SERIES_REL_TOL, "multiple": SERIES_TOL_MULTIPLE})


def _protocol_series(rng: random.Random, inputs: Path) -> list[Query]:
    queries = []
    spectra = {}
    for k, (source, rule, band, kind) in enumerate(_SERIES_SLOTS):
        if source not in spectra:
            n, edges = ref.named_graph(source)
            spectra[source] = (n, ref.Spectrum(ref.hamiltonian(n, edges)))
        n, spec = spectra[source]
        detect = rng.randrange(n) if rule is None else rule
        tau, init, p = _series_query(rng, n, spec, detect, band, superpose=kind == "state")
        if kind == "state":
            path = inputs / f"state-{k:02d}.json"
            path.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in init.tolist()]}) + "\n")
            init = str(path)
        queries.append(_simulate(f"simulate-{source}-{kind}", source, detect, init, tau, p))
    n, edges = ref.named_graph("ring:64")
    pdet = ref.Spectrum(ref.hamiltonian(n, edges)).pdet_state(_unit(n, 0), _unit(n, 32), 1.0)
    queries.append(_simulate("simulate-ring:64-capped", "ring:64", 0, 32, 1.0, pdet))
    return queries


# --------------------------------------------------------------------------
# Every workload also sends one small query of each kind on square_center, so
# that every traced function runs on every workload: a function that never
# runs would read 0 ms on every run.  Together they take about 20 ms a pass.


def _probes(rng: random.Random, inputs: Path) -> list[Query]:
    source, detect = "square_center", 4
    n, edges = ref.named_graph(source)
    spec = ref.Spectrum(ref.hamiltonian(n, edges))
    path = inputs / "square_center.graph.json"
    path.write_text(json.dumps({"nodes": n, "edges": [list(e) for e in edges]}) + "\n")
    tau = _draw_tau(rng, spec, 0.5, 2.5, 1e-3)
    series_tau, init, pdet = _series_query(rng, n, spec, detect, (100, 600), superpose=False)
    return [
        _analyze("probe-analyze", str(path), n, edges, None, detect, "all", tau, source),
        _quotient(rng, source, detect),
        _resonances("probe-resonances", source, spec),
        _simulate("probe-simulate", source, detect, init, series_tau, pdet),
    ]
