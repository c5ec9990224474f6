"""Tests of the benchmark's seeded job generator.

    python3 -m pytest perfbench/test_jobs.py -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402

OTHER_SEED = 1


def _params_of(job):
    if job["kind"] == "truncated_factorization_check":
        yield job["params"]
    elif job["kind"] == "cli" and "params" in job["config"]:
        yield job["config"]["params"]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_same_seed_gives_identical_bytes(workload):
    assert jobs.dumps(jobs.generate(workload, 0)) == jobs.dumps(jobs.generate(workload, 0))


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_other_seed_gives_other_list(workload):
    assert jobs.dumps(jobs.generate(workload, 0)) != jobs.dumps(jobs.generate(workload, OTHER_SEED))


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
@pytest.mark.parametrize("seed", [0, OTHER_SEED])
def test_params_are_self_adjoint_and_contractive(workload, seed):
    checked = 0
    for job in jobs.generate(workload, seed):
        for p in _params_of(job):
            A, B = jobs._matrix(p["A"]), jobs._matrix(p["B"])
            assert np.array_equal(A, A.conj().T)
            assert np.array_equal(B, B.conj().T)
            eigs = np.linalg.eigvalsh(B)
            assert eigs[0] >= 0 and eigs[-1] <= 1
            checked += 1
    assert checked > 0


def _shape(job):
    """What sets a job's cost, apart from its parameter values."""
    cfg = job.get("config", {})
    params = job.get("params") or cfg.get("params") or {}
    dim = len(params["A"]) if params else cfg.get("random", {}).get("dim")
    return (job["kind"], cfg.get("command"), job.get("emit_plots"), dim,
            job.get("N"), job.get("t"), cfg.get("n_samples"), cfg.get("order"), len(job.get("coeffs", ())))


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_job_shapes_do_not_depend_on_seed(workload):
    assert [_shape(j) for j in jobs.generate(workload, 0)] == [_shape(j) for j in jobs.generate(workload, OTHER_SEED)]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
@pytest.mark.parametrize("seed", [0, OTHER_SEED])
def test_every_job_meets_its_expected_outcome(workload, seed, tmp_path):
    runner = jobs.Runner(jobs.generate(workload, seed), str(tmp_path))
    errors = {}
    for i, job in enumerate(runner.jobs):
        _, error, _ = runner.run(i)
        if error is not None:
            errors[job["id"]] = error
    assert not errors


def _first_job(workload, command):
    job_list = jobs.generate(workload, 0)
    return next(j for j in job_list if j["kind"] == "cli" and j["config"]["command"] == command)


def test_changed_report_digest_is_a_failure(tmp_path):
    job = _first_job("shiftsim", "shift-sim")
    runner = jobs.Runner([job], str(tmp_path))
    assert runner.run(0)[1] is None
    runner.digests[job["id"]] = "0" * 64
    assert "sha256" in runner.run(0)[1]


def test_unexpected_verdict_is_a_failure(tmp_path):
    job = _first_job("rigidity_herglotz", "rigidity-check")
    job["config"]["expect_verdict"] = "INCONCLUSIVE"
    _, error, _ = jobs.Runner([job], str(tmp_path)).run(0)
    assert error is not None


def test_tracer_restores_the_program(tmp_path):
    import holo_lab.cli
    from holo_lab import operators, rigidity, shiftsim
    from spans import Tracer

    originals = (operators.as_matrix, shiftsim.as_matrix, rigidity.OperatorFunction.__call__, holo_lab.cli.main)
    runner = jobs.Runner([_first_job("shiftsim", "shift-sim")], str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        assert shiftsim.as_matrix is not originals[1]
        wall, error, _ = runner.run(0)
        assert error is None
    finally:
        tracer.uninstall()
    assert (operators.as_matrix, shiftsim.as_matrix, rigidity.OperatorFunction.__call__,
            holo_lab.cli.main) == originals
    per_name = tracer.summary()
    assert per_name["cli.main"][0] == 1
    assert per_name["shiftsim.laguerre_quadrature"][0] == 1
    assert 0.9 * wall <= sum(s for _, s in per_name.values()) <= wall


def test_benchmark_json_declares_the_generated_workloads():
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"]: w["why"] for w in declared} == jobs.WORKLOADS
