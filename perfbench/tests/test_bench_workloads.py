"""Workload inputs depend on the seed alone."""

import pytest

import workloads


def _snapshot(workload, seed, directory):
    queries = workloads.generate(workload, seed, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return [(q.qid, q.argv, q.expect) for q in queries], files


def _relocated(snapshot, directory):
    queries, files = snapshot
    return [(qid, [a.replace(str(directory), "<in>") for a in argv], exp) for qid, argv, exp in queries], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _relocated(_snapshot(workload, 7, tmp_path / "a"), tmp_path / "a")
    second = _relocated(_snapshot(workload, 7, tmp_path / "b"), tmp_path / "b")
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_same_shape_other_inputs(workload, tmp_path):
    first = _relocated(_snapshot(workload, 1, tmp_path / "a"), tmp_path / "a")
    second = _relocated(_snapshot(workload, 2, tmp_path / "b"), tmp_path / "b")
    assert [q[1][0] for q in first[0]] == [q[1][0] for q in second[0]]
    assert first != second


def test_known_failure_is_in_every_protocol_pass(tmp_path):
    for seed in (1, 2):
        queries = workloads.generate("protocol-series", seed, tmp_path / str(seed))
        assert [q.argv for q in queries].count(workloads.KNOWN_FAILURE) == 1
