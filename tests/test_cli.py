"""Command-line interface: reports, schema conformance, exit codes."""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import sys
import time
from dataclasses import replace
from itertools import chain
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strobewalk as sw
from strobewalk import _floattext, cli, detection, spectral, symmetry
from strobewalk.cli import main

import helpers


@pytest.fixture(scope="module")
def schema():
    text = resources.files("strobewalk").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def spy(monkeypatch, module, name):
    """Record the calls of ``module.name`` through every strobewalk binding of it."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "strobewalk" or key.startswith("strobewalk."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recording)
    return calls


def disordered_ring(tmp_path, seed):
    """ring:64 with on-site energies uniform in [-1, 1], as a graph file."""
    onsite = np.random.default_rng(seed).uniform(-1.0, 1.0, 64)
    g = replace(helpers.graph("ring:64"), onsite=onsite)
    path = tmp_path / f"ring64-{seed}.json"
    path.write_bytes(sw.save_graph(g))
    return str(path)


class TestAnalyze:
    def test_tree_root_table(self, capsys, schema):
        report = run_json(capsys, "analyze", "--graph", "tree:2", "--detect", "0", "--init", "all")
        jsonschema.validate(report, schema)
        values = {row["init"]: row for row in report["results"]}
        assert values["0"]["pdet"] == pytest.approx(1.0, abs=1e-9)
        for node in ("1", "2"):
            assert values[node]["pdet"] == pytest.approx(0.5, abs=1e-9)
            assert values[node]["pdet_fraction"] == "1/2"
        for node in ("3", "4", "5", "6"):
            assert values[node]["pdet"] == pytest.approx(0.25, abs=1e-9)
            assert values[node]["upper_bound_fraction"] == "1/4"
        assert report["saturated"] is True
        assert report["group_order"] == 8
        assert report["stabilizer_order"] == 8

    def test_cross_neighbor(self, capsys, schema):
        report = run_json(capsys, "analyze", "--graph", "cross:4", "--detect", "0", "--init", "1")
        jsonschema.validate(report, schema)
        row = report["results"][0]
        assert row["pdet"] == pytest.approx(0.25, abs=1e-9)
        assert row["orbit_rank"] == 4
        assert row["upper_bound"] == pytest.approx(0.25, abs=1e-9)
        assert row["saturated"] is True
        assert row["dark_dim"] == 3

    def test_complete8_reciprocal(self, capsys, schema):
        report = run_json(capsys, "analyze", "--graph", "complete:8", "--detect", "0", "--init", "1")
        jsonschema.validate(report, schema)
        row = report["results"][0]
        assert row["pdet"] == pytest.approx(1.0 / 7.0, abs=1e-9)
        assert row["upper_bound_fraction"] == "1/7"

    def test_resonant_tau_warns(self, capsys, schema):
        report = run_json(capsys, "analyze", "--graph", "ring:6", "--detect", "0",
                          "--init", "1", "--tau", str(math.pi))
        jsonschema.validate(report, schema)
        assert report["tau_resonant"] is True
        assert any("resonant" in w for w in report["warnings"])

    # 2 pi / 3 plus 2e-9: the phase gap of the merging pairs lies between 1e-9 and the phase tolerance 1e-8
    NEAR_THIRD = "2.094395104393195"

    def test_a_large_tau_keeps_each_level_whole(self, capsys, schema):
        # At 1e9 the phases of hypercube:3's level at 1 lie about 2e-6 apart; split, its
        # parts would count as bright sectors of their own, with pdet above the 1/3 bound.
        argv = ["analyze", "--graph", "hypercube:3", "--detect", "0", "--init", "all", "--tau"]
        report = run_json(capsys, *argv, "1e9")
        jsonschema.validate(report, schema)
        moderate = run_json(capsys, *argv, "1.0")
        assert report["tau_resonant"] is False
        assert [row["bright_dim"] for row in report["results"]] == [4] * 8
        assert [row["pdet"] for row in report["results"]] == [row["pdet"] for row in moderate["results"]]
        assert all(row["pdet"] <= row["upper_bound"] for row in report["results"])

    def test_a_gap_the_fold_merges_is_resonant(self, capsys, schema):
        sd = sw.fold_sectors(helpers.eigensystem("ring:6"), float(self.NEAR_THIRD))
        assert sorted(sd.degeneracies.tolist()) == [3, 3]
        report = run_json(capsys, "analyze", "--graph", "ring:6", "--detect", "0", "--init", "all",
                          "--tau", self.NEAR_THIRD)
        jsonschema.validate(report, schema)
        assert report["tau_resonant"] is True
        assert any("sectors merge" in w for w in report["warnings"])
        pdet = {row["init"]: row["pdet"] for row in report["results"]}
        for init in ("1", "2", "4", "5"):
            assert pdet[init] < 1e-12  # the resonant value, not the generic 1/2

    def test_a_phase_tolerance_below_the_gap_is_not_resonant(self, capsys, schema):
        sd = sw.fold_sectors(helpers.eigensystem("ring:6"), 2 * math.pi / 3, phase_tol=0.0)
        assert sd.degeneracies.size >= 4  # the four levels stay apart
        report = run_json(capsys, "analyze", "--graph", "ring:6", "--detect", "0", "--init", "all",
                          "--tau", repr(2 * math.pi / 3), "--tol", "phase=0")
        jsonschema.validate(report, schema)
        assert report["tau_resonant"] is False
        assert not any("resonant" in w for w in report["warnings"])
        pdet = {row["init"]: row["pdet"] for row in report["results"]}
        for init in ("1", "2", "4", "5"):
            assert pdet[init] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_output(self, capsys):
        argv = ["analyze", "--graph", "square_center", "--detect", "4", "--init", "all",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        # every command in every format, twice in one process: nothing cached leaks
        for base in TestFormatsAndErrors.BASE_ARGS.values():
            for fmt in ("text", "csv", "json"):
                outputs = []
                for _ in range(2):
                    assert main([*base, "--format", fmt]) == 0
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1], (base, fmt)

    @pytest.mark.parametrize("spec, detect, tau", [("lattice:4x4", "5", "1.3"), ("tree:3", "0", "1.0"),
                                                   ("ring:7", "2", "0.8")])
    def test_all_inits_agree_with_the_per_init_library_calls(self, capsys, spec, detect, tau):
        report = run_json(capsys, "analyze", "--graph", spec, "--detect", detect,
                          "--init", "all", "--tau", tau)
        sd = sw.fold_sectors(helpers.eigensystem(spec), float(tau))
        stab = helpers.node_stabilizer(spec, int(detect))
        psi_d = helpers.basis(spec, int(detect))
        for row in report["results"]:
            psi = helpers.basis(spec, int(row["init"]))
            rep = sw.pdet_spectral(sd, psi_d, psi)
            assert abs(row["pdet"] - rep.pdet) <= 1e-15
            assert abs(row["upper_bound"] - sw.upper_bound(stab, psi)) <= 1e-15
            assert row["orbit_rank"] == sw.orbit_rank(stab, psi)
            assert (row["bright_dim"], row["dark_dim"]) == (rep.bright_dim, rep.dark_dim)
            assert row["excluded_sectors"] == list(rep.excluded_sectors)

    def test_all_inits_project_the_detector_once(self, capsys, monkeypatch):
        projections = spy(monkeypatch, detection, "_DetectorProjection")
        report = run_json(capsys, "analyze", "--graph", "lattice:4x4", "--detect", "5", "--init", "all")
        assert len(report["results"]) == 16
        assert len(projections) == 1

    @staticmethod
    def column_source(tmp_path, source):
        """A disordered ring:64 graph file or a named graph, as a CLI source and its graph."""
        if source == "disordered":
            path = disordered_ring(tmp_path, 3)
            with open(path, "rb") as f:
                return path, sw.load_graph(f.read())
        return source, helpers.graph(source)

    @pytest.mark.parametrize("source", ["disordered", "lattice:8x8", "hypercube:4"])
    def test_detector_columns_equal_the_per_sector_products(self, tmp_path, source):
        _, g = self.column_source(tmp_path, source)
        n = g.node_count
        es = sw.diagonalize(sw.hamiltonian(g, 1.0))
        for tau in (0.7, 1.3, math.pi):
            sd = sw.fold_sectors(es, tau)
            for d in (0, n // 3, n - 1):
                psi_d = sw.localized_state(n, d)
                proj = detection._DetectorProjection(sd, psi_d)
                for l in range(len(sd.degeneracies)):
                    vectors = helpers.sector_vectors(sd, l)
                    c = vectors.conj().T @ psi_d
                    assert proj.weights[l] == float(np.real(c.conj() @ c)), (tau, d, l)
                    assert np.array_equal(proj.columns[:, l], vectors @ c), (tau, d, l)

    @pytest.mark.parametrize("source", ["disordered", "lattice:8x8", "hypercube:4"])
    def test_all_inits_bound_and_rank_equal_the_per_init_library(self, capsys, tmp_path, source):
        path, g = self.column_source(tmp_path, source)
        n = g.node_count
        group = sw.automorphisms(g)
        for d in (0, n // 3):
            report = run_json(capsys, "analyze", "--graph", path, "--detect", str(d), "--init", "all")
            stab = sw.stabilizer(group, sw.localized_state(n, d))
            for row in report["results"]:
                psi = sw.localized_state(n, int(row["init"]))
                assert row["upper_bound"] == sw.upper_bound(stab, psi), (d, row["init"])
                assert row["orbit_rank"] == sw.orbit_rank(stab, psi), (d, row["init"])

    def test_all_inits_call_no_per_init_library_function(self, capsys, monkeypatch, tmp_path):
        path = disordered_ring(tmp_path, 3)
        bounds = spy(monkeypatch, symmetry, "upper_bound")
        ranks = spy(monkeypatch, symmetry, "orbit_rank")
        reports = spy(monkeypatch, detection, "DetectionReport")
        report = run_json(capsys, "analyze", "--graph", path, "--detect", "5", "--init", "all")
        assert len(report["results"]) == 64
        assert bounds == ranks == reports == []

    def test_near_dark_sector_warns(self, capsys, schema, tmp_path):
        # seed 0 drops two sectors as dark; one has detector weight 1.9e-14 >> roundoff
        path = disordered_ring(tmp_path, 0)
        report = run_json(capsys, "analyze", "--graph", path, "--detect", "0", "--init", "all")
        jsonschema.validate(report, schema)
        (warning,) = [w for w in report["warnings"] if "--tol dark=" in w]
        assert "1.905e-14" in warning
        assert min(row["pdet"] for row in report["results"]) < 0.7
        # the smaller tolerance the warning names keeps the sector: every node is detected
        kept = run_json(capsys, "analyze", "--graph", path, "--detect", "0", "--init", "all",
                        "--tol", "dark=1e-20")
        assert not kept["warnings"]
        assert all(row["pdet"] == pytest.approx(1.0, abs=1e-9) for row in kept["results"])
        # the saturation count uses the same tolerance: the trivial group's bound is attained
        assert report["saturated"] is False and report["symmetric_dark_dim"] == 2
        assert kept["saturated"] is True and kept["symmetric_dark_dim"] == 0
        assert all(row["saturated"] and row["bright_dim"] == 64 for row in kept["results"])
        sim = run_json(capsys, "simulate", "--graph", path, "--detect", "0", "--init", "1",
                       "--tol", "series-cap=64")
        assert any("--tol dark=" in w for w in sim["warnings"])

    def test_roundoff_dark_sectors_do_not_warn(self, capsys):
        report = run_json(capsys, "analyze", "--graph", "tree:4", "--detect", "0", "--init", "all")
        assert report["results"][0]["dark_dim"] > 0
        assert not any("dark" in w for w in report["warnings"])

    def test_graph_file_source(self, capsys, schema, tmp_path):
        path = tmp_path / "pair.json"
        path.write_bytes(sw.save_graph(helpers.graph("complete:2")))
        report = run_json(capsys, "analyze", "--graph", str(path), "--detect", "0", "--init", "1")
        jsonschema.validate(report, schema)
        assert report["results"][0]["pdet"] == pytest.approx(1.0, abs=1e-9)

    def test_state_file_detect(self, capsys, schema, tmp_path):
        # detection on a ring eigenstate via the state-file interface
        psi = helpers.ring_eigenstate(6, 1)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in psi]}))
        report = run_json(capsys, "analyze", "--graph", "ring:6", "--detect", str(path),
                          "--init", "all")
        jsonschema.validate(report, schema)
        assert report["stabilizer_order"] == 6
        for row in report["results"]:
            assert row["pdet"] == pytest.approx(1.0 / 6.0, abs=1e-9)
            assert row["upper_bound_fraction"] == "1/6"

    def test_localized_state_file_detect_matches_the_node_id(self, capsys, tmp_path):
        # a state file localized on a node takes the same single search as the node id
        path = tmp_path / "detect.json"
        path.write_text(json.dumps({"amplitudes": sw.localized_state(63, 17).real.tolist()}))
        by_node = run_json(capsys, "analyze", "--graph", "tree:5", "--detect", "17", "--init", "all")
        by_file = run_json(capsys, "analyze", "--graph", "tree:5", "--detect", str(path), "--init", "all")
        assert (by_node.pop("detect"), by_file.pop("detect")) == ("17", str(path))
        assert by_file == by_node
        rows = []
        for detect in ("17", str(path)):
            assert main(["analyze", "--graph", "tree:5", "--detect", detect, "--init", "all",
                         "--format", "csv"]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_tree5_root_table(self, capsys, schema):
        # 63 nodes and a group of order 2^31: the paper's 2^-k law in generation k
        report = run_json(capsys, "analyze", "--graph", "tree:5", "--detect", "0", "--init", "all")
        jsonschema.validate(report, schema)
        assert report["group_order"] == report["stabilizer_order"] == 2**31
        for row in report["results"]:
            generation = (int(row["init"]) + 1).bit_length() - 1
            assert row["pdet"] == pytest.approx(2.0**-generation, abs=1e-9)
            assert row["upper_bound"] == pytest.approx(2.0**-generation, abs=1e-12)
            assert row["orbit_rank"] == 2**generation
        bright = report["results"][0]["bright_dim"]
        assert bright == 6
        assert sum(row["pdet"] for row in report["results"]) == pytest.approx(bright, abs=1e-9)


class TestSimulate:
    def test_tree_series_next_to_spectral(self, capsys, schema):
        report = run_json(capsys, "simulate", "--graph", "tree:2", "--detect", "0",
                          "--init", "3", "--tau", "0.7")
        jsonschema.validate(report, schema)
        assert report["series"]["converged"] is True
        assert report["series"]["estimate"] == pytest.approx(0.25, abs=1e-6)
        assert report["spectral_pdet"] == pytest.approx(0.25, abs=1e-9)
        assert len(report["first_detection"]) == report["series"]["n_used"]
        partial = report["partial_sums"]
        assert partial == sorted(partial)
        assert partial[-1] == pytest.approx(report["series"]["estimate"], abs=1e-12)

    def test_dark_initial_state_all_zero(self, capsys, schema, tmp_path):
        path = tmp_path / "dark.json"
        path.write_text(json.dumps({"amplitudes": [0.0, 0.5, -0.5, 0.5, -0.5]}))
        report = run_json(capsys, "simulate", "--graph", "cross:4", "--detect", "0",
                          "--init", str(path), "--tau", "1.1")
        jsonschema.validate(report, schema)
        assert report["series"]["estimate"] < 1e-20
        assert max(report["first_detection"]) < 1e-24

    def test_one_diagonalization_and_one_protocol_run(self, capsys, monkeypatch, schema):
        diagonalizations = spy(monkeypatch, spectral, "diagonalize")
        runs = spy(monkeypatch, detection, "_window_operator")
        report = run_json(capsys, "simulate", "--graph", "ring:16", "--detect", "0",
                          "--init", "5", "--tau", "1.3")
        jsonschema.validate(report, schema)
        assert (len(diagonalizations), len(runs)) == (1, 1)
        assert len(report["first_detection"]) == report["series"]["n_used"]
        assert report["partial_sums"][-1] == pytest.approx(report["series"]["estimate"], abs=1e-12)

    def test_slow_fully_bright_series_stops_on_the_survival_norm(self, capsys, schema):
        # fully bright: the bright survival is the whole survival norm, and it settles the slow decay
        report = run_json(capsys, "simulate", "--graph", "ring:64", "--detect", "0",
                          "--init", "32", "--tau", "1.0")
        jsonschema.validate(report, schema)
        series = report["series"]
        assert series["converged"] is True
        assert abs(series["estimate"] - 1.0) <= 1e-6
        assert series["n_used"] < 100_000
        assert len(report["first_detection"]) == series["n_used"]
        assert not report["warnings"]

    @pytest.mark.parametrize("graph, detect, init, tau", [
        ("ring:64", "0", "1", "1.0"),
        ("lattice:8x8", "0", "36", "1.3"),
        ("ring:32", "24", "22", "1.7644"),
    ])
    def test_series_with_a_dark_part_meets_rel_tol(self, capsys, graph, detect, init, tau):
        # a tail fit over window sums once stopped each of these short and called it converged
        report = run_json(capsys, "simulate", "--graph", graph, "--detect", detect,
                          "--init", init, "--tau", tau)
        series, spectral = report["series"], report["spectral_pdet"]
        assert series["converged"] is True
        assert abs(series["estimate"] - spectral) <= detection.SERIES_REL_TOL * spectral

    def test_near_dark_series_is_right_or_unconverged(self, capsys, tmp_path):
        # a sector of detector weight 1.9e-14 drains too slowly for the step cap
        report = run_json(capsys, "simulate", "--graph", disordered_ring(tmp_path, 0), "--detect", "0",
                          "--init", "5", "--tol", "dark=1e-20")
        series, spectral = report["series"], report["spectral_pdet"]
        within = abs(series["estimate"] - spectral) <= detection.SERIES_REL_TOL * spectral
        assert within or series["converged"] is False

    def test_series_cap_bounds_the_terms(self, capsys, schema):
        report = run_json(capsys, "simulate", "--graph", "ring:64", "--detect", "0",
                          "--init", "32", "--tau", "1.0", "--tol", "series-cap=1000")
        jsonschema.validate(report, schema)
        assert report["series"]["n_used"] == 1000
        assert report["series"]["converged"] is False
        assert len(report["first_detection"]) == len(report["partial_sums"]) == 1000
        assert "series did not converge within n=1000" in report["warnings"]

    def test_resonant_tau_warns_and_may_not_converge(self, capsys, schema):
        report = run_json(capsys, "simulate", "--graph", "ring:6", "--detect", "0",
                          "--init", "1", "--tau", str(math.pi),
                          "--tol", "series-cap=2000")
        jsonschema.validate(report, schema)
        assert report["tau_resonant"] is True
        assert any("resonant" in w for w in report["warnings"])

    def test_a_gap_the_fold_merges_warns(self, capsys, schema):
        report = run_json(capsys, "simulate", "--graph", "ring:6", "--detect", "0", "--init", "1",
                          "--tau", TestAnalyze.NEAR_THIRD, "--tol", "series-cap=2000")
        jsonschema.validate(report, schema)
        assert report["tau_resonant"] is True
        assert report["warnings"] == [
            f"tau={TestAnalyze.NEAR_THIRD} is a resonant detection period; the series may not converge",
            "series did not converge within n=2000",
        ]


class TestQuotientCommand:
    def test_takes_no_tau(self, capsys):
        assert run_json(capsys, "quotient", "--graph", "ring:6", "--detect", "0")["tau"] is None
        with pytest.raises(SystemExit) as bad:
            main(["quotient", "--graph", "ring:6", "--detect", "0", "--tau", "1.0"])
        assert bad.value.code == 2
        assert "unrecognized arguments: --tau 1.0" in capsys.readouterr().err

    def test_tree_root_line(self, capsys, schema):
        report = run_json(capsys, "quotient", "--graph", "tree:2", "--detect", "0")
        jsonschema.validate(report, schema)
        assert report["reduced_dim"] == 3
        assert report["classes"] == [
            {"id": 0, "members": [0], "multiplicity": 1},
            {"id": 1, "members": [1, 2], "multiplicity": 2},
            {"id": 2, "members": [3, 4, 5, 6], "multiplicity": 4},
        ]
        qg = report["quotient_graph"]
        assert qg["nodes"] == 3
        weights = [edge[2] for edge in qg["edges"]]
        assert weights == pytest.approx([math.sqrt(2)] * 2, abs=1e-12)

    def test_ring8_classes(self, capsys, schema):
        report = run_json(capsys, "quotient", "--graph", "ring:8", "--detect", "0")
        jsonschema.validate(report, schema)
        assert [tuple(c["members"]) for c in report["classes"]] == [
            (0,), (1, 7), (2, 6), (3, 5), (4,)]

    def test_complete8_two_classes(self, capsys, schema):
        report = run_json(capsys, "quotient", "--graph", "complete:8", "--detect", "0")
        jsonschema.validate(report, schema)
        assert report["reduced_dim"] == 2

    def test_tree5_generations(self, capsys, schema):
        report = run_json(capsys, "quotient", "--graph", "tree:5", "--detect", "0")
        jsonschema.validate(report, schema)
        assert report["reduced_dim"] == 6
        assert [c["multiplicity"] for c in report["classes"]] == [2**k for k in range(6)]

    def test_writes_graph_file_next_to_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["quotient", "--graph", "tree:2", "--detect", "0",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        side = tmp_path / "report.json.graph.json"
        graph = sw.load_graph(side.read_bytes())
        assert graph.node_count == report["reduced_dim"] == 3

    def test_delocalized_detect_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        amp = 1.0 / math.sqrt(2.0)
        path.write_text(json.dumps({"amplitudes": [amp, amp, 0, 0, 0, 0, 0]}))
        code = main(["quotient", "--graph", "tree:2", "--detect", str(path)])
        assert code == 2
        assert "localized" in capsys.readouterr().err


class TestOneSymmetrySearch:
    """A localized detector costs one group search, whose chain also gives the stabilizer."""

    @staticmethod
    def spy_searches(monkeypatch):
        original = symmetry._Search.chain
        chains = []

        def chain(self, *args, **kwargs):
            chains.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(symmetry._Search, "chain", chain)
        return spy(monkeypatch, symmetry, "_Search"), chains

    @pytest.mark.parametrize("argv", [
        ["analyze", "--graph", "tree:4", "--detect", "5", "--init", "all"],
        ["analyze", "--graph", "lattice:6x6", "--detect", "0", "--init", "all"],
        ["quotient", "--graph", "ring:16", "--detect", "3"],
        ["quotient", "--graph", "tree:3", "--detect", "0"],
    ])
    def test_one_search_and_one_chain_per_query(self, capsys, monkeypatch, schema, argv):
        searches, chains = self.spy_searches(monkeypatch)
        report = run_json(capsys, *argv)
        jsonschema.validate(report, schema)
        assert (len(searches), len(chains)) == (1, 1)

    def test_phased_detector_keeps_its_own_search(self, capsys, monkeypatch, tmp_path):
        psi = helpers.ring_eigenstate(6, 1)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[z.real, z.imag] for z in psi]}))
        searches, chains = self.spy_searches(monkeypatch)
        report = run_json(capsys, "analyze", "--graph", "ring:6", "--detect", str(path), "--init", "all")
        assert report["stabilizer_order"] == 6
        assert (len(searches), len(chains)) == (2, 2)


class TestParserReuse:
    def test_a_query_carries_nothing_into_the_next(self, capsys):
        argv = ["analyze", "--graph", "tree:3", "--detect", "2", "--init", "all", "--format", "json"]
        cli._parser.cache_clear()
        assert main(argv) == 0
        alone = capsys.readouterr().out
        assert main([*argv, "--tol", "dark=1e-20", "--tol", "phase=0"]) == 0
        assert capsys.readouterr().out != alone  # the overrides do change this report
        assert main(argv) == 0
        assert capsys.readouterr().out == alone
        parser = cli._parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, sub in commands.choices.items():
            tol = sub._option_string_actions.get("--tol")
            assert (tol is not None) == bool(TOL_TAKES[name])
            assert tol is None or tol.default == []

    def test_exit_codes_survive_a_successful_call(self, capsys):
        assert main(["spectrum", "--graph", "ring:3"]) == 0
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert sw.__version__ in capsys.readouterr().out
        with pytest.raises(SystemExit) as bad:
            main(["nosuch", "--graph", "ring:3"])
        assert bad.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["spectrum", "--graph", "ring:3"]) == 0


class TestResonancesCommand:
    def test_ring6_range(self, capsys, schema):
        report = run_json(capsys, "resonances", "--graph", "ring:6", "--tau", "7")
        jsonschema.validate(report, schema)
        taus = [entry["tau"] for entry in report["resonances"]]
        assert taus
        assert taus == sorted(taus)
        assert taus[0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert any(abs(t - 2 * math.pi) < 1e-9 for t in taus)

    def test_complete2_gap_two(self, capsys, schema):
        report = run_json(capsys, "resonances", "--graph", "complete:2", "--tau", "7")
        jsonschema.validate(report, schema)
        assert [e["tau"] for e in report["resonances"]] == pytest.approx([math.pi, 2 * math.pi])

    def test_single_level_graph_empty(self, capsys, schema, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"nodes": 1, "edges": []}')
        report = run_json(capsys, "resonances", "--graph", str(path), "--tau", "10")
        jsonschema.validate(report, schema)
        assert report["resonances"] == []

    def test_scan_syntax_filters_range(self, capsys, schema):
        report = run_json(capsys, "resonances", "--graph", "ring:6", "--tau", "scan:2:5")
        jsonschema.validate(report, schema)
        taus = [entry["tau"] for entry in report["resonances"]]
        assert all(2 < t <= 5 for t in taus)
        assert taus == pytest.approx([2 * math.pi / 3, math.pi, 4 * math.pi / 3, 3 * math.pi / 2])

    @pytest.mark.parametrize("steps", ["10", "abc", "0", "-3", ""])
    def test_a_scan_takes_no_steps(self, capsys, steps):
        # the listing is exact: a step count would be a setting that nothing reads
        assert main(["resonances", "--graph", "ring:6", "--tau", f"scan:2:5:{steps}"]) == 2
        assert capsys.readouterr().err == f"error: --tau scan must look like scan:min:max, got 'scan:2:5:{steps}'\n"

    @pytest.mark.parametrize("tau", ["scan:0:inf", "scan:1:inf"])
    def test_infinite_scan_max_is_a_config_error(self, capsys, tau):
        assert main(["resonances", "--graph", "ring:6", "--tau", tau]) == 2
        assert capsys.readouterr().err.startswith("error: scan range must satisfy")

    @pytest.mark.parametrize("tau", ["scan:0:1e300", "1e300", "scan:0:1e18"])
    def test_period_count_beyond_any_array_is_a_numerical_error(self, capsys, tau):
        assert main(["resonances", "--graph", "ring:6", "--tau", tau]) == 3
        assert "do not fit in an array" in capsys.readouterr().err

    def test_period_listing_beyond_memory_is_a_numerical_error(self, capsys):
        # 2.2e17 periods pass the index guard, but their arrays cannot be allocated
        assert main(["resonances", "--graph", "ring:6", "--tau", "scan:0:1e17"]) == 3
        assert "do not fit in memory" in capsys.readouterr().err


def _dict_built_resonances(source: str, tau: str) -> dict[str, str]:
    """The resonances report in each format, built as one dict per entry and written by the stdlib."""
    graph = sw.build_named(source) if ":" in source else sw.load_graph(open(source, "rb").read())
    lo, hi = cli._parse_tau_range(tau)
    es = sw.diagonalize(sw.hamiltonian(graph, 1.0))
    entries = [{"tau": p.tau, "pairs": p.pairs}
               for p in helpers.resonance_entries(sw.resonant_periods(es, hi)) if p.tau > lo]
    report = {"command": "resonances", "tau": None, "warnings": [], "range": [lo, hi], "resonances": entries,
              "graph": {"source": source, "nodes": graph.node_count, "edges": graph.edge_count}}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "level_pairs"])
    for entry in entries:
        writer.writerow([entry["tau"], ";".join(f"{l0}-{l1}x{k}" for l0, l1, k in entry["pairs"])])
    lines = [f"strobewalk resonances  graph={source} ({graph.node_count} nodes)", f"range=({lo}, {hi}]"]
    for entry in entries:
        pairs = ", ".join(f"levels {l0}&{l1} (k={k})" for l0, l1, k in entry["pairs"])
        lines.append(f"  tau_c = {entry['tau']:.12g}  from {pairs}")
    if not entries:
        lines.append("  none")
    return {"json": json.dumps(report, indent=2, sort_keys=True) + "\n", "csv": buf.getvalue(),
            "text": "\n".join(lines) + "\n"}


class TestResonanceListingBytes:
    @pytest.mark.parametrize("source, tau", [
        ("ring:6", "7"), ("hypercube:3", "20"), ("complete:4", "scan:2:30"), ("ONE", "10"),
        ("DISORDERED", "scan:0:20"), ("ring:64", "scan:0:20"),
    ], ids=["ring6", "hypercube3", "complete4-scan", "one-node", "disordered-ring64", "ring64"])
    def test_columns_write_the_dict_built_report_byte_for_byte(self, capsys, tmp_path, source, tau):
        if source == "ONE":
            source = str(tmp_path / "one.json")
            Path(source).write_text('{"nodes": 1, "edges": []}')
        elif source == "DISORDERED":
            source = disordered_ring(tmp_path, 5)
        expected = _dict_built_resonances(source, tau)
        for fmt, text in expected.items():
            assert main(["resonances", "--graph", source, "--tau", tau, "--format", fmt]) == 0
            helpers.assert_same_text(capsys.readouterr().out, text, fmt)

    @pytest.mark.parametrize("source, tau, pairs", [
        ("ring:64", "scan:0:20", 2587), ("DISORDERED", "scan:0:20", None), ("ring:6", "7", None),
    ], ids=["ring64", "disordered-ring64", "ring6"])
    def test_long_listings_are_laid_out_in_one_pass(self, capsys, monkeypatch, tmp_path, source, tau, pairs):
        if source == "DISORDERED":
            source = disordered_ring(tmp_path, 5)
        calls = spy(monkeypatch, _floattext, "layout")
        report = run_json(capsys, "resonances", "--graph", source, "--tau", tau)
        listed = sum(len(entry["pairs"]) for entry in report["resonances"])
        if len(report["resonances"]) < cli._BULK:
            assert calls == []
            return
        # One call, one text row per level pair.
        assert [n for n, _ in calls] == [listed]
        assert pairs in (None, listed)

    def test_the_listing_builds_no_object_per_period(self, capsys, monkeypatch, tmp_path):
        calls = spy(monkeypatch, spectral, "resonant_periods")
        argv = ["resonances", "--graph", disordered_ring(tmp_path, 5), "--tau", "scan:0:20", "--format", "json"]
        assert main(argv) == 0
        # One listing, as columns.
        assert len(calls) == 1
        # The 10512 periods as tuples, dicts or dataclasses alive at once would set off a
        # cyclic collection every 700 or so; the dict-built listing set off 60.
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.callbacks.append(count)
        try:
            gc.collect()
            runs.clear()
            assert main(argv) == 0
        finally:
            gc.callbacks.remove(count)
        assert len(runs) < 5


def _report_texts(report: dict, csv_rows: list, lines: list[str]) -> dict[str, str]:
    """A dict-built report in each format: JSON by the stdlib, the CSV rows and the text lines after its head."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv_rows)
    graph = report["graph"]
    head = [f"strobewalk {report['command']}  graph={graph['source']} ({graph['nodes']} nodes)"]
    head += [f"warning: {warning}" for warning in report["warnings"]]
    return {"json": json.dumps(report, indent=2, sort_keys=True) + "\n", "csv": buf.getvalue(),
            "text": "\n".join(head + lines) + "\n"}


def _graph_fields(source: str, graph: sw.WeightedGraph) -> dict:
    return {"source": source, "nodes": graph.node_count, "edges": graph.edge_count}


def _dict_built_spectrum(source: str, graph: sw.WeightedGraph, tau: float) -> dict[str, str]:
    """The spectrum report in each format, built as one dict per sector from the library's columns."""
    es = sw.diagonalize(sw.hamiltonian(graph, 1.0))
    sd = sw.fold_sectors(es, tau)
    bounds = sd.bounds.tolist()
    sectors = [{"phase": phase, "degeneracy": b - a, "energies": sd.energies[a:b].tolist()}
               for phase, a, b in zip(sd.phases.tolist(), bounds, bounds[1:])]
    report = {"command": "spectrum", "graph": _graph_fields(source, graph), "tau": tau,
              "eigenvalues": es.eigenvalues.tolist(), "sectors": sectors, "warnings": list(sd.warnings)}
    rows = [["sector", "phase", "degeneracy", "energies"]]
    rows += [[i, s["phase"], s["degeneracy"], " ".join(map(str, s["energies"]))] for i, s in enumerate(sectors)]
    lines = [f"eigenvalues: {report['eigenvalues']}", f"tau={tau}"]
    lines += [f"  sector {i}: phase={s['phase']:.12g} degeneracy={s['degeneracy']} energies={s['energies']}"
              for i, s in enumerate(sectors)]
    return _report_texts(report, rows, lines)


def _dict_built_analyze(source: str, graph: sw.WeightedGraph, detect: int, tau: float) -> dict[str, str]:
    """The ``analyze --init all`` report in each format, one dict per init from per-init library calls."""
    n = graph.node_count
    es = sw.diagonalize(sw.hamiltonian(graph, 1.0))
    sd = sw.fold_sectors(es, tau)
    psi_d = sw.localized_state(n, detect)
    group = sw.automorphisms(graph)
    stab = sw.stabilizer(group, psi_d)
    resonant = sw.is_resonant(sd)
    inits = [sw.localized_state(n, r) for r in range(n)]
    reports = [sw.pdet_spectral(sd, psi_d, psi) for psi in inits]
    bounds = [sw.upper_bound(stab, psi) for psi in inits]
    pdets = [rep.pdet for rep in reports]
    bright_dim = reports[0].bright_dim
    saturated = stab.symmetric_dim == bright_dim
    warnings = list(sd.warnings)
    if resonant:
        warnings.append(f"tau={tau} is a resonant detection period: sectors merge and the "
                        "symmetry analysis relies on the folded sectors")
    weights = detection._DetectorProjection(sd, psi_d).weights
    near = weights[(weights > 1e-24) & (weights <= 1e-12)]
    if near.size:
        warnings.append(f"a sector dropped as dark has detector weight {float(np.max(near)):.3e}, above the "
                        "square of the dark tolerance 1e-12: it may be weakly bright; a smaller --tol dark= keeps it")
    results = [
        {"init": str(r), "pdet": rep.pdet, "pdet_fraction": pdet_fraction, "orbit_rank": sw.orbit_rank(stab, psi),
         "upper_bound": bound, "upper_bound_fraction": bound_fraction, "saturated": saturated,
         "bright_dim": rep.bright_dim, "dark_dim": rep.dark_dim, "excluded_sectors": list(rep.excluded_sectors)}
        for r, (psi, rep, bound, pdet_fraction, bound_fraction) in enumerate(
            zip(inits, reports, bounds, cli._fractions_of(pdets), cli._fractions_of(bounds)))
    ]
    report = {"command": "analyze", "graph": _graph_fields(source, graph), "tau": tau, "tau_resonant": resonant,
              "detect": str(detect), "group_order": group.order, "stabilizer_order": stab.order,
              "saturated": saturated, "symmetric_dark_dim": stab.symmetric_dim - bright_dim,
              "results": results, "warnings": warnings}
    names = ["init", "pdet", "pdet_fraction", "orbit_rank", "upper_bound", "upper_bound_fraction", "saturated",
             "bright_dim", "dark_dim"]
    rows = [names, *([row[name] for name in names] for row in results)]
    lines = [f"detect={detect}  tau={tau}  group order={group.order}  stabilizer order={stab.order}  "
             f"saturated={saturated}", f"{'init':>8}  {'pdet':>12}  {'bound':>12}  {'rank':>4}  bright/dark"]
    for row in results:
        pdet_note = f" ({row['pdet_fraction']})" if row["pdet_fraction"] else ""
        bound_note = f" ({row['upper_bound_fraction']})" if row["upper_bound_fraction"] else ""
        lines.append(f"{row['init']:>8}  {row['pdet']:>12.9f}{pdet_note}  {row['upper_bound']:>12.9f}{bound_note}  "
                     f"{row['orbit_rank']:>4}  {row['bright_dim']}/{row['dark_dim']}")
    return _report_texts(report, rows, lines)


class TestSectorColumnBytes:
    """``spectrum`` sectors and ``analyze`` rows reach the writers as columns; the bytes are
    those of the same reports built as one dict per sector or per init."""

    CASES = [("ring:6", "2.0943951023931953"), ("tree:2", "1.0"), ("complete:8", "0.7"), ("ONE", "1.0"),
             ("DISORDERED-RING", "1.0"), ("DISORDERED-HYPERCUBE", "1.3")]
    IDS = ["ring6-resonant", "tree2", "complete8", "one-node", "disordered-ring64", "disordered-hypercube6"]

    @staticmethod
    def source(tmp_path, name):
        """A CLI graph source and its graph: a named graph, or a graph file."""
        if name == "DISORDERED-RING":
            # seed 0 drops a sector as dark above the square of the tolerance: the warning is covered
            path = Path(disordered_ring(tmp_path, 0))
        elif name == "DISORDERED-HYPERCUBE":
            path = tmp_path / "hypercube6.json"
            path.write_bytes(sw.save_graph(helpers.disordered("hypercube:6", 4)))
        elif name == "ONE":
            path = tmp_path / "one.json"
            path.write_text('{"nodes": 1, "edges": []}')
        else:
            return name, helpers.graph(name)
        return str(path), sw.load_graph(path.read_bytes())

    @pytest.mark.parametrize("name, tau", CASES, ids=IDS)
    def test_spectrum_writes_the_dict_built_report_byte_for_byte(self, capsys, tmp_path, name, tau):
        source, graph = self.source(tmp_path, name)
        expected = _dict_built_spectrum(source, graph, float(tau))
        for fmt, text in expected.items():
            assert main(["spectrum", "--graph", source, "--tau", tau, "--format", fmt]) == 0
            helpers.assert_same_text(capsys.readouterr().out, text, fmt)

    @pytest.mark.parametrize("name, tau", CASES, ids=IDS)
    def test_analyze_all_writes_the_dict_built_report_byte_for_byte(self, capsys, tmp_path, name, tau):
        source, graph = self.source(tmp_path, name)
        expected = _dict_built_analyze(source, graph, 0, float(tau))
        for fmt, text in expected.items():
            assert main(["analyze", "--graph", source, "--detect", "0", "--init", "all", "--tau", tau,
                         "--format", fmt]) == 0
            helpers.assert_same_text(capsys.readouterr().out, text, fmt)

    def test_the_cases_cover_merged_and_degenerate_sectors_and_a_dark_warning(self, tmp_path):
        covered = set()
        for name, tau in self.CASES:
            es = sw.diagonalize(sw.hamiltonian(self.source(tmp_path, name)[1], 1.0))
            if sw.is_resonant(sw.fold_sectors(es, float(tau))):
                covered.add("resonant")
            if (sw.fold_sectors(es, float(tau)).degeneracies > 1).any():
                covered.add(name)
        assert {"resonant", "ring:6", "tree:2", "complete:8"} <= covered
        source, graph = self.source(tmp_path, "DISORDERED-RING")
        assert "--tol dark=" in _dict_built_analyze(source, graph, 0, 1.0)["text"]


def _listed_periods(es: sw.EigenSystem):
    """Every raw period ``k * 2 pi / gap`` of the levels up to 40, the members of each run among them."""
    sd = sw.energy_sectors(es)
    levels = sd.energies[sd.bounds[:-1]].tolist()  # the lowest energy of each level
    gaps = [b - a for i, a in enumerate(levels) for b in levels[i + 1:]]
    return sorted(k * (2.0 * math.pi / gap) for gap in gaps for k in range(1, int(40 * gap / (2 * math.pi)) + 1))


_SCAN_GRAPHS = {spec: sw.diagonalize(helpers.ham(spec)) for spec in ("ring:6", "complete:4", "hypercube:3")}


class TestScanRange:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_SCAN_GRAPHS)), st.data())
    def test_a_scan_lists_what_the_full_listing_keeps_above_min(self, spec, data):
        es = _SCAN_GRAPHS[spec]
        periods = _listed_periods(es)
        # at a raw period, inside a run of near-coinciding ones, or just beside one; or anywhere
        at = data.draw(st.sampled_from(periods))
        lo = data.draw(st.one_of(
            st.sampled_from([at, math.nextafter(at, 0.0), math.nextafter(at, math.inf),
                             at * (1.0 - 1e-9), at * (1.0 + 1e-9), at - 1e-10, at + 1e-10]),
            st.floats(min_value=0.0, max_value=30.0),
        ))
        hi = data.draw(st.floats(min_value=lo, max_value=40.0).filter(lambda v: v > lo))
        kept = [{"tau": p.tau, "pairs": [list(t) for t in p.pairs]}
                for p in helpers.resonance_entries(sw.resonant_periods(es, hi)) if p.tau > lo]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["resonances", "--graph", spec, "--tau", f"scan:{lo!r}:{hi!r}", "--format", "json"]) == 0
        report = json.loads(out.getvalue())
        assert report["range"] == [lo, hi]
        assert report["resonances"] == kept


#: The ``--tol`` keys, and the keys each command takes.
TOL_KEYS = ("phase", "dark", "rank", "series-rel", "series-cap")
TOL_TAKES = {"analyze": ("phase", "dark", "rank"), "simulate": ("phase", "dark", "series-rel", "series-cap"),
             "spectrum": ("phase",), "quotient": (), "resonances": ()}
TOL_PAIRS = [(command, key) for command in TOL_TAKES for key in TOL_KEYS]


class TestToleranceKeys:
    """Each command takes the ``--tol`` keys its report reads, and refuses every other one."""

    RUNS = {"analyze": ["--detect", "0", "--init", "1"], "simulate": ["--detect", "0", "--init", "1"],
            "spectrum": [], "quotient": ["--detect", "0"], "resonances": ["--tau", "3"]}
    NEAR_THIRD = ["--tau", TestAnalyze.NEAR_THIRD]
    SERIES = ["--detect", "0", "--init", "1", "--tau", "2.0"]
    #: (command, key): the arguments, the override, and a report value before and after it.
    CHANGES = {
        # 2 pi / 3 + 2e-9 folds ring:6's levels into two sectors of three, unless the phase tolerance
        # is 0; the degenerate levels -1 and 1 stay whole either way
        ("analyze", "phase"): (["--detect", "0", "--init", "1", *NEAR_THIRD], "phase=0",
                               lambda r: round(r["results"][0]["pdet"], 9), 0.0, 0.5),
        ("simulate", "phase"): (["--detect", "0", "--init", "1", *NEAR_THIRD, "--tol", "series-cap=64"],
                                "phase=0", lambda r: round(r["spectral_pdet"], 9), 0.0, 0.5),
        ("spectrum", "phase"): (NEAR_THIRD, "phase=0",
                                lambda r: [s["degeneracy"] for s in r["sectors"]], [3, 3], [1, 2, 2, 1]),
        # a dark tolerance of 1 empties the bright sectors
        ("analyze", "dark"): (["--detect", "0", "--init", "1"], "dark=1",
                              lambda r: r["results"][0]["bright_dim"], 4, 0),
        ("simulate", "dark"): (SERIES, "dark=1", lambda r: round(r["spectral_pdet"], 9), 0.5, 0.0),
        # 0.6 |0> + 0.8 |1> and its mirror image about the detector span a plane, at rank_tol 1 a line
        ("analyze", "rank"): (["--detect", "0", "--init", "STATE"], "rank=1",
                              lambda r: r["results"][0]["orbit_rank"], 2, 1),
        ("simulate", "series-rel"): (SERIES, "series-rel=1e-2", lambda r: r["series"]["n_used"], 384, 128),
        ("simulate", "series-cap"): (SERIES, "series-cap=64", lambda r: r["series"]["n_used"], 384, 64),
    }

    @pytest.mark.parametrize("command, key", TOL_PAIRS, ids=[f"{c}-{k}" for c, k in TOL_PAIRS])
    def test_each_key_is_read_or_refused(self, capsys, tmp_path, command, key):
        if (command, key) not in self.CHANGES:
            self.assert_refused(capsys, [command, "--graph", "ring:6", *self.RUNS[command], "--tol", f"{key}=1"])
            return
        args, entry, read, before, after = self.CHANGES[command, key]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": [0.6, 0.8, 0, 0, 0, 0]}))
        argv = [command, "--graph", "ring:6", *[str(state) if a == "STATE" else a for a in args]]
        assert read(run_json(capsys, *argv)) == before
        assert read(run_json(capsys, *argv, "--tol", entry)) == after

    def assert_refused(self, capsys, argv):
        """A key the command does not read exits 2: a named error, or argparse's for a command without --tol."""
        command, entry = argv[0], argv[-1]
        if TOL_TAKES[command]:
            assert main(argv) == 2
            assert capsys.readouterr().err == (f"error: bad --tol entry {entry!r}; expected KEY=VALUE with KEY in "
                                               f"{', '.join(TOL_TAKES[command])}\n")
        else:
            with pytest.raises(SystemExit) as refused:
                main(argv)
            assert refused.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(TOL_TAKES))
    def test_an_unknown_key_names_the_keys_of_its_command(self, capsys, command):
        self.assert_refused(capsys, [command, "--graph", "ring:6", *self.RUNS[command], "--tol", "resonance=nan"])


class TestSpectrumCommand:
    def test_ring6_sectors(self, capsys, schema):
        report = run_json(capsys, "spectrum", "--graph", "ring:6", "--tau", "1.0")
        jsonschema.validate(report, schema)
        assert report["eigenvalues"] == pytest.approx([-2, -1, -1, 1, 1, 2], abs=1e-9)
        assert sorted(s["degeneracy"] for s in report["sectors"]) == [1, 1, 2, 2]


class TestFormatsAndErrors:
    BASE_ARGS = {
        "analyze": ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "all"],
        "simulate": ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "1"],
        "quotient": ["quotient", "--graph", "ring:6", "--detect", "0"],
        "resonances": ["resonances", "--graph", "ring:6", "--tau", "7"],
        "spectrum": ["spectrum", "--graph", "ring:6"],
    }

    @pytest.mark.parametrize("command", sorted(BASE_ARGS))
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_every_command_renders_in_every_format(self, capsys, command, fmt):
        assert main([*self.BASE_ARGS[command], "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            header = out.splitlines()[0]
            assert "," in header

    @pytest.mark.parametrize("command", sorted(BASE_ARGS))
    def test_json_is_the_json_modules_own_layout(self, capsys, command):
        assert main([*self.BASE_ARGS[command], "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv, key, size", [
        (["resonances", "--graph", "DISORDERED", "--tau", "scan:0:20"], "resonances", 64),
        (["analyze", "--graph", "lattice:8x8", "--detect", "0", "--init", "all"], "results", 64),
        (["simulate", "--graph", "ring:64", "--detect", "0", "--init", "32", "--tau", "1.0"], "first_detection", 64),
        (["spectrum", "--graph", "ring:512"], "eigenvalues", 512),
        (["quotient", "--graph", "lattice:8x8", "--detect", "0"], "classes", 15),
    ], ids=["resonances-disordered-ring64", "analyze-lattice8x8", "simulate-ring64", "spectrum-ring512",
            "quotient-lattice8x8"])
    def test_long_reports_are_the_json_modules_own_layout(self, capsys, tmp_path, argv, key, size):
        argv = [disordered_ring(tmp_path, 5) if arg == "DISORDERED" else arg for arg in argv]
        assert main([*argv, "--format", "json"]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert len(doc[key]) >= size
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_text_format(self, capsys):
        assert main(["analyze", "--graph", "tree:2", "--detect", "0", "--init", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.250000000" in out
        assert "1/4" in out

    def test_csv_format(self, capsys):
        assert main(["analyze", "--graph", "tree:2", "--detect", "0", "--init", "all",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("init,pdet,")
        assert len(lines) == 8

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["spectrum", "--graph", "ring:3", "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        json.loads(out.read_text())

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--graph", "nosuch:5", "--detect", "0", "--init", "0"],
            ["analyze", "--graph", "ring:2", "--detect", "0", "--init", "0"],
            ["analyze", "--graph", "ring:6", "--detect", "9", "--init", "0"],
            ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "0", "--tau", "-1"],
            ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "0", "--tol", "bogus=1"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "all"],
            ["resonances", "--graph", "ring:6", "--tau", "scan:5:2"],
            ["spectrum", "--graph", "ring:6", "--tau", "3", "--tol", "bogus=1"],
            ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "all", "--tol", "series-cap=500"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-cap=nan"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-cap=inf"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-cap=0"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-cap=2.5"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-rel=0"],
            ["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", "series-rel=-1"],
            ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "all", "--tol", "dark=nan"],
            ["analyze", "--graph", "complete:8", "--detect", "0", "--init", "3", "--tau", "1.0", "--tol", "phase=-1"],
            ["analyze", "--graph", "ring:6", "--detect", "0", "--init", "all", "--tol", "rank=-inf"],
            ["spectrum", "--graph", "ring:6", "--tau", "3", "--tol", "resonance=nan"],
        ],
    )
    def test_config_errors_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [["analyze", "--init", "0"], ["quotient"]])
    def test_detector_is_checked_before_the_group_search(self, capsys, command):
        # tree:6 has 127 nodes, above the search cap: the bad detector must be reported first
        assert main([command[0], "--graph", "tree:6", "--detect", "999", *command[1:]]) == 2
        assert capsys.readouterr().err == "error: detect node 999 out of range for 127 nodes\n"

    @pytest.mark.parametrize("case", ["directory", "graph-bytes", "init-bytes", "detect-bytes"])
    def test_unreadable_input_files_exit_2(self, capsys, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        graph, detect, init = {"directory": (tmp_path, "0", "1"), "graph-bytes": (path, "0", "1"),
                               "init-bytes": ("ring:6", "0", path), "detect-bytes": ("ring:6", path, "1")}[case]
        assert main(["analyze", "--graph", str(graph), "--detect", str(detect), "--init", str(init)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("cannot read graph file" if case == "directory" else "not UTF-8") in err

    @pytest.mark.parametrize("argv, out, target", [
        (["spectrum", "--graph", "ring:6", "--format", "json"], "missing/r.json", "missing/r.json"),
        (["quotient", "--graph", "ring:6", "--detect", "0"], "missing/r", "missing/r.graph.json"),
        # the graph file can be written next to the directory, the report cannot: neither is left
        (["quotient", "--graph", "ring:6", "--detect", "0"], "dir", "dir"),
    ], ids=["spectrum", "quotient-graph", "quotient-report-is-a-directory"])
    def test_an_unwritable_out_path_exits_2(self, capsys, tmp_path, argv, out, target):
        (tmp_path / "dir").mkdir()
        assert main([*argv, "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {str(tmp_path / target)!r}: ")
        assert [path.name for path in tmp_path.iterdir()] == ["dir"]
        assert not any((tmp_path / "dir").iterdir())

    def test_a_huge_graph_file_exits_3_before_its_hamiltonian_is_built(self, capsys, monkeypatch, tmp_path):
        # A million nodes: a dense H would need 7.3 TiB.  The graph's own node limit refuses the
        # file before its lists are built; below that limit, the dense cap refuses it before H.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"nodes": 1_000_000, "edges": [[0, 1]]}))
        built = spy(monkeypatch, sw.graphs, "hamiltonian")
        assert main(["spectrum", "--graph", str(path)]) == 3
        assert capsys.readouterr().err == "numerical error: graph has 1000000 nodes, above the limit of 65536\n"
        path.write_text(json.dumps({"nodes": 10_000, "edges": [[0, 1]]}))
        assert main(["spectrum", "--graph", str(path)]) == 3
        assert capsys.readouterr().err == "numerical error: matrix dimension 10000 exceeds the cap 512\n"
        assert built == []

    @pytest.mark.parametrize("source, nodes", [("FILE", 10**9), ("ring:1000000000", 10**9),
                                               ("complete:1000000", 10**6)])
    def test_a_graph_above_the_size_limit_exits_3_at_once(self, capsys, tmp_path, source, nodes):
        # The counts are checked before any per-node or per-edge array, so no list of a
        # billion entries is built first.
        if source == "FILE":
            source = str(tmp_path / "billion.json")
            Path(source).write_text('{"nodes":1000000000,"edges":[]}')
            assert Path(source).stat().st_size < 32
        start = time.perf_counter()
        assert main(["spectrum", "--graph", source]) == 3
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == f"numerical error: graph has {nodes} nodes, above the limit of 65536\n"

    @pytest.mark.parametrize("command", [["spectrum"], ["analyze", "--detect", "0", "--init", "all"],
                                         ["simulate", "--detect", "0", "--init", "1", "--tol", "series-cap=64"]],
                             ids=["spectrum", "analyze", "simulate"])
    def test_a_tau_at_which_a_phase_overflows_exits_3(self, capsys, command):
        # |E| = 2 times 1e308 is no finite phase; at 1e307 every phase is
        argv = [command[0], "--graph", "ring:6", *command[1:], "--format", "json", "--tau"]
        assert main([*argv, "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: E * tau overflows at tau=1e+308: the largest |E| is ")
        assert main([*argv, "1e307"]) == 0
        json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # no NaN

    def test_numerical_failure_exits_3(self, capsys, tmp_path):
        # 600 nodes exceeds the eigendecomposition cap
        n = 600
        doc = {"nodes": n, "edges": [[i, i + 1] for i in range(n - 1)]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", "--graph", str(path)]) == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["series-cap=nan", "series-rel=0", "dark=nan", "phase=-1"])
    def test_a_bad_tolerance_value_names_its_key(self, capsys, entry):
        assert main(["simulate", "--graph", "ring:6", "--detect", "0", "--init", "2", "--tol", entry]) == 2
        key, _, value = entry.partition("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: --tol {key} must be finite and ") and f"got {value!r}" in err

    def test_unnormalized_state_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amplitudes": [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]}))
        assert main(["analyze", "--graph", "ring:6", "--detect", str(path), "--init", "0"]) == 2
        assert "normalized" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitudes, message", [
        ("[NaN, 0, 0, 0, 0, 0]", "normalized"),
        ('[["1", 0], 0, 0, 0, 0, 0]', "amplitudes[0] must be a number or [re, im]"),
        ("[[1, 0], [null, 0], 0, 0, 0, 0]", "amplitudes[1] must be a number or [re, im]"),
        ("[true, false, false, false, false, false]", "amplitudes[0] must be a number or [re, im]"),
        ("[1, [0, false], 0, 0, 0, 0]", "amplitudes[1] must be a number or [re, im]"),
        ("[1e400, 0, 0, 0, 0, 0]", "normalized"),
        ("[" + "1" * 400 + ", 0, 0, 0, 0, 0]", "amplitudes[0] is too large"),
        ("5", "an 'amplitudes' list"),
    ], ids=["nan", "string-part", "null-part", "bools", "bool-part", "inf", "huge-int", "not-a-list"])
    @pytest.mark.parametrize("role", ["--init", "--detect"])
    def test_bad_state_file_entries_rejected(self, capsys, tmp_path, amplitudes, message, role):
        path = tmp_path / "bad.json"
        path.write_text('{"amplitudes": ' + amplitudes + "}")
        states = {"--init": "0", "--detect": "0", role: str(path)}
        argv = ["analyze", "--graph", "ring:6", "--detect", states["--detect"], "--init", states["--init"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_state_file_takes_numbers_and_pairs(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text('{"amplitudes": [0.6, [0, 0.8], 0, 0.0, [0, 0], 0]}')
        assert main(["analyze", "--graph", "ring:6", "--detect", "0", "--init", str(path), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 1


_json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                               st.characters()), max_size=6)
_json_floats = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _json_floats,
    _json_floats.map(np.float64),
    _json_text,
)
#: Columns of mixed kinds: bools next to ints, float subclasses next to floats, NaN among floats.
_json_mixed_columns = st.one_of(
    st.lists(st.sampled_from([True, 1, False, 0, 2]), max_size=6),
    st.lists(st.one_of(_json_floats, _json_floats.map(np.float64)), max_size=6),
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan)), max_size=6),
    st.lists(st.one_of(st.integers(), st.floats(), st.none(), _json_text), max_size=6),
)
#: Arrays of mixed and zero length, side by side in one column.
_json_ragged = st.one_of(
    st.lists(st.lists(st.integers(), max_size=3), max_size=5),
    st.lists(st.lists(_json_floats, max_size=3).map(tuple), max_size=5),
    st.lists(st.one_of(st.lists(st.integers(), max_size=2), st.lists(_json_text, max_size=2).map(tuple)),
             max_size=5),
)


def _json_records(children):
    """Lists of objects that share one set of str keys, each in its own key order."""
    record = st.sets(_json_text, max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({key: children for key in keys}))
    return st.lists(record.flatmap(lambda d: st.permutations(list(d.items())).map(dict)), max_size=3)


def _json_clashing_keys(children):
    """Objects keyed ``1``, ``True`` and ``1.0`` (equal as dict keys, not as JSON) in one list."""
    key = st.sampled_from([1, True, 1.0, 0, False, 0.0, "1", "true"])
    return st.lists(st.dictionaries(key, children, max_size=1), max_size=4)


_json_values = st.recursive(
    st.one_of(_json_scalars, st.lists(st.integers()), st.lists(_json_floats), st.lists(st.booleans()),
              _json_mixed_columns, _json_ragged),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_json_text, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), _json_floats), children, max_size=4),
        _json_records(children),
        _json_records(_json_records(children)),
        _json_clashing_keys(children),
    ),
    max_leaves=20,
)


def _as_column(values):
    """A ragged column where every value is a list, nested as deep as that holds; else the values."""
    if values and all(type(value) is list for value in values):
        return cli._Ragged(_as_column(list(chain.from_iterable(values))), list(map(len, values)))
    return values


#: Columns of a table: scalars, arrays of mixed and zero length, arrays of arrays, any values.
_table_columns = st.one_of(
    st.just(_json_scalars),
    st.just(st.lists(_json_scalars, max_size=3)),
    st.just(st.lists(st.lists(st.integers(-3, 2000), max_size=3), max_size=3)),
    st.just(st.lists(st.just([]), max_size=2)),
    st.just(_json_values),
)


@st.composite
def _json_tables(draw):
    """Records that share one set of str keys, next to the same records as a column table."""
    rows = draw(st.integers(0, 5))
    columns = {name: draw(st.lists(draw(_table_columns), min_size=rows, max_size=rows))
               for name in draw(st.sets(_json_text, max_size=3))}
    records = [{name: column[row] for name, column in columns.items()} for row in range(rows)]
    table = cli._Table({name: _as_column(column) for name, column in columns.items()}, rows)
    return records, table


class TestJsonWriter:
    @settings(max_examples=300)
    @given(_json_values)
    def test_matches_json_dumps(self, value):
        assert cli._to_json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=300)
    @given(_json_tables(), _json_values, st.sampled_from(["alone", "in-object", "after-other", "twice"]))
    def test_a_column_table_matches_json_dumps_of_its_records(self, tables, other, place):
        records, table = tables
        wrap = {
            "alone": lambda rows: {"listing": rows},
            "in-object": lambda rows: {"listing": rows, "other": other},
            "after-other": lambda rows: {"a": other, "b": rows},
            "twice": lambda rows: {"a": rows, "b": rows, "c": other},
        }[place]
        assert cli._to_json(wrap(table), "\n") == json.dumps(wrap(records), indent=2, sort_keys=True)

    @staticmethod
    def long_floats(seed, n=None):
        rng = np.random.default_rng(seed)
        n = n or cli._BULK + 37
        return (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).tolist()

    @pytest.mark.parametrize("case", ["top-level", "in-object", "table-column", "two-arrays",
                                      "with-nan", "with-np-float64", "one-short"])
    def test_long_float_columns_match_json_dumps(self, monkeypatch, case):
        # Plain lists, and the list columns of a table, never reach the float kernel.
        joins, layouts = spy(monkeypatch, _floattext, "join_each"), spy(monkeypatch, _floattext, "layout")
        floats = self.long_floats(7)
        records = None
        if case == "top-level":
            value = floats
        elif case == "in-object":
            value = {"first_detection": floats, "partial_sums": self.long_floats(8), "n": 3}
        elif case == "table-column":
            taus, counts = self.long_floats(9), list(range(len(floats)))
            value = {"listing": cli._Table({"tau": taus, "count": counts}, len(taus))}
            records = {"listing": [{"tau": tau, "count": count} for tau, count in zip(taus, counts)]}
        elif case == "two-arrays":
            value = [floats, self.long_floats(10, 2 * cli._BULK)]
        elif case == "with-nan":
            value = floats[:500] + [math.nan] + floats[500:]
        elif case == "with-np-float64":
            value = floats[:500] + [np.float64(0.25)] + floats[500:]
        else:
            value = floats[:cli._BULK - 1]
        expected = json.dumps(value if records is None else records, indent=2, sort_keys=True)
        assert cli._to_json(value, "\n") == expected
        assert joins == layouts == []

    def test_finite_floats_with_an_infinite_sum(self):
        value = [1e308, 1e308, 0.5]
        assert cli._to_json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)
        assert cli._to_json({"a": [value]}, "\n") == json.dumps({"a": [value]}, indent=2, sort_keys=True)
        table = {"t": cli._Table({"x": value}, len(value))}
        records = {"t": [{"x": x} for x in value]}
        assert cli._to_json(table, "\n") == json.dumps(records, indent=2, sort_keys=True)

    @pytest.mark.parametrize("values", [
        np.random.default_rng(4).random(cli._BULK + 3), np.random.default_rng(4).random(5), np.zeros(0),
        np.arange(-3, cli._BULK), np.r_[np.random.default_rng(4).random(cli._BULK), math.nan, math.inf],
    ], ids=["long", "short", "empty", "ints", "long-non-finite"])
    def test_an_array_value_is_written_as_its_list(self, values):
        value = {"n": 1, "values": cli._Array(values)}
        expected = {"n": 1, "values": values.tolist()}
        assert cli._to_json(value, "\n") == json.dumps(expected, indent=2, sort_keys=True)

    @pytest.mark.parametrize("short", [0, 1])
    def test_the_float_arrays_of_an_object_take_one_pass(self, monkeypatch, short):
        # Together the two finite arrays hold _BULK_ARRAYS values, or one fewer; the non-finite
        # and the int array take the str path.
        calls = spy(monkeypatch, _floattext, "join_each")
        rng = np.random.default_rng(5)
        half = cli._BULK_ARRAYS // 2
        a, b = rng.random(half) ** 8, np.cumsum(rng.random(cli._BULK_ARRAYS - half - short))
        value = {"a": cli._Array(a), "b": cli._Array(b), "bad": cli._Array(np.r_[a, math.nan, b]),
                 "ints": cli._Array(np.arange(-3, 600)), "n": 1}
        expected = {"a": a.tolist(), "b": b.tolist(), "bad": [*a.tolist(), math.nan, *b.tolist()],
                    "ints": list(range(-3, 600)), "n": 1}
        assert cli._to_json(value, "\n") == json.dumps(expected, indent=2, sort_keys=True)
        assert [[array.size for array in arrays] for arrays, _ in calls] == ([] if short else [[a.size, b.size]])

    @pytest.mark.parametrize("attempts", [96, 128, 160])
    def test_a_short_simulate_report_is_the_same_on_either_path(self, capsys, monkeypatch, attempts):
        argv = ["simulate", "--graph", "ring:64", "--detect", "0", "--init", "32", "--tau", "1.0",
                "--tol", f"series-cap={attempts}", "--format", "json"]
        texts = []
        for threshold in (math.inf, 0, cli._BULK_ARRAYS):
            monkeypatch.setattr(cli, "_BULK_ARRAYS", threshold)
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        report = json.loads(texts[0])
        assert len(report["first_detection"]) == len(report["partial_sums"]) == attempts
        assert texts[0] == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [np.int64(3), [1, np.int64(2)], {"a": 1j}, {1, 2},
                                       {(1, 2): 3}, {"x": [object()]}, np.arange(3),
                                       {"a": np.zeros(2)}, [np.zeros(2), np.zeros(2)]])
    def test_unsupported_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._to_json(value, "\n")

    @pytest.mark.parametrize("place", ["alone", "in-list", "in-object", "in-table"])
    @pytest.mark.parametrize("column", ["table", "array"])
    def test_a_column_below_the_top_level_raises_type_error(self, column, place):
        # Columns are a report's top-level values only; below that they are no JSON value.
        value = cli._Table({"x": [1.5]}, 1) if column == "table" else cli._Array(np.zeros(2))
        wrap = {
            "alone": lambda v: v,
            "in-list": lambda v: {"a": [v], "b": cli._Array(np.ones(1))},
            "in-object": lambda v: {"a": {"b": v}, "c": cli._Array(np.ones(1))},
            "in-table": lambda v: {"a": cli._Table({"x": [v]}, 1)},
        }[place]
        with pytest.raises(TypeError):
            cli._to_json(wrap(value), "\n")


def _limit_denominator(value):
    frac = Fraction(value).limit_denominator(64)
    return f"{frac.numerator}/{frac.denominator}" if abs(float(frac) - value) < 1e-9 else None


#: Values at and around ``p/q``, offsets straddling the 1e-9 acceptance edge.
_near_fractions = st.builds(
    lambda p, q, offset: p / q + offset,
    st.integers(-130, 130),
    st.integers(1, 70),
    st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 9.999999e-10, -1.0000001e-9, 1e-17]),
              st.floats(-2e-9, 2e-9)),
)


class TestFractions:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(_near_fractions, st.floats(-2.0, 2.0), st.floats(-(2.0**20), 2.0**20)),
                    max_size=40))
    def test_column_matches_limit_denominator(self, values):
        assert cli._fractions_of(values) == [_limit_denominator(v) for v in values]


@st.composite
def _numeric_tables(draw):
    """A table of numpy int and float columns, at most one ragged, next to the same records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.sampled_from([1, 9, cli._BULK - 1, cli._BULK, cli._BULK + 29]))

    def array(kind, size):
        width = () if kind.endswith("1") else (int(rng.integers(1, 4)),)
        if kind.startswith("int"):
            big = rng.integers(-(2**63), 2**63 - 1, (size, *width), dtype=np.int64, endpoint=True)
            return np.where(rng.random((size, *width)) < 0.8, rng.integers(-50, 3000, (size, *width)), big)
        values = rng.standard_normal((size, *width)) * 10.0 ** rng.integers(-30, 30, (size, *width))
        if draw(st.booleans()):
            values.flat[int(rng.integers(values.size))] = draw(st.sampled_from([0.0, -0.0, 5e-324, math.nan]))
        return values

    kinds = st.sampled_from(["int1", "float1", "int2", "float2"])
    names = sorted(draw(st.sets(st.sampled_from(["a", "pairs", "tau", "z\u00e9"]), min_size=1, max_size=3)))
    columns = {name: array(draw(kinds), rows) for name in names}
    records = [{name: column[row].tolist() for name, column in columns.items()} for row in range(rows)]
    if draw(st.booleans()):
        name = draw(st.sampled_from(names))
        lengths = rng.integers(1, 7, rows)
        members = array(draw(kinds), int(lengths.sum()))
        columns[name] = cli._Ragged(members, lengths)
        bounds = np.r_[0, np.cumsum(lengths)].tolist()
        for record, a, b in zip(records, bounds, bounds[1:]):
            record[name] = members[a:b].tolist()
    return records, cli._Table(columns, rows)


class TestNumericTables:
    @settings(max_examples=120, deadline=None)
    @given(_numeric_tables(), st.sampled_from(["alone", "in-object", "after-other", "twice"]))
    def test_a_numeric_table_matches_json_dumps_of_its_records(self, tables, place):
        records, table = tables
        wrap = {
            "alone": lambda rows: {"listing": rows},
            "in-object": lambda rows: {"listing": rows, "other": [1.5, "x"]},
            "after-other": lambda rows: {"a": {"k": 2}, "b": rows},
            "twice": lambda rows: {"a": rows, "b": rows, "c": {"k": 2}},
        }[place]
        assert cli._to_json(wrap(table), "\n") == json.dumps(wrap(records), indent=2, sort_keys=True)
        finite = all(math.isfinite(v) for v in chain.from_iterable(_leaves(r) for r in records))
        assert (cli._bulk_table_text(table, "\n") is not None) == (table.rows >= cli._BULK and finite)


def _leaves(value):
    if isinstance(value, dict):
        return chain.from_iterable(map(_leaves, value.values()))
    if isinstance(value, list):
        return chain.from_iterable(map(_leaves, value))
    return [value]
