"""Parallel experiment harness: identical output to the sequential path.

Every (workload, scheme, seed) cell is an independent, seeded,
deterministic simulation, so fanning the matrix out over worker
processes must change *nothing* about the results — same ordering, same
float values, same derived figure statistics.  ``solver_seconds`` inside
the fabric perf counters is wall-clock time and is excluded from the
comparison; every other counter is deterministic and compared exactly.
"""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.experiments.figures import fig7_job_completion_times
from repro.experiments.runner import (
    ExperimentPlan,
    clear_data_cache,
    run_matrix,
)
from repro.experiments.schemes import Scheme
from repro.failures.chaos import ChaosEvent, ChaosSchedule
from repro.workloads import workload_by_name

# jobs=3 splits the 4-cell matrix into uneven slices (2 + 1 + 1).
JOBS = (1, 2, 3)


@pytest.fixture(autouse=True)
def _clean():
    clear_data_cache()
    yield
    clear_data_cache()


def _small_matrix(plan, schemes=(Scheme.SPARK, Scheme.AGGSHUFFLE), jobs=1):
    clear_data_cache()
    workloads = [workload_by_name("wordcount")]
    return run_matrix(workloads, list(schemes), plan, jobs=jobs)


@pytest.fixture(scope="module")
def matrices():
    """jobs -> results of one 4-cell matrix (2 schemes x 2 seeds)."""
    plan = ExperimentPlan(seeds=(0, 1))
    return {jobs: _small_matrix(plan, jobs=jobs) for jobs in JOBS}


def _comparable(result):
    """RunResult as a dict minus the wall-clock perf field."""
    data = dataclasses.asdict(result)
    data["fabric_perf"] = {
        key: value
        for key, value in data["fabric_perf"].items()
        if key != "solver_seconds"
    }
    return data


def test_parallel_matrix_is_identical_to_sequential(matrices):
    sequential = matrices[1]
    for jobs in JOBS[1:]:
        parallel = matrices[jobs]
        assert len(parallel) == len(sequential) == 4
        for seq, par in zip(sequential, parallel):
            assert _comparable(seq) == _comparable(par)
        # The derived figure statistics are byte-identical.
        assert repr(fig7_job_completion_times(sequential)) == repr(
            fig7_job_completion_times(parallel)
        )


def test_jobs_of_one_falls_back_to_sequential_runner(matrices):
    assert [(r.scheme, r.seed) for r in matrices[1]] == [
        (Scheme.SPARK, 0),
        (Scheme.SPARK, 1),
        (Scheme.AGGSHUFFLE, 0),
        (Scheme.AGGSHUFFLE, 1),
    ]


def test_parallel_results_preserve_matrix_order(matrices):
    for jobs in JOBS[1:]:
        assert [(r.workload, r.scheme, r.seed) for r in matrices[jobs]] == [
            ("WordCount", Scheme.SPARK, 0),
            ("WordCount", Scheme.SPARK, 1),
            ("WordCount", Scheme.AGGSHUFFLE, 0),
            ("WordCount", Scheme.AGGSHUFFLE, 1),
        ]


def test_chaos_plan_matches_across_jobs():
    """A plan whose base config carries a chaos schedule stays
    byte-identical between the sequential and parallel paths, and the
    schedule actually fires in every cell."""
    degrade = ChaosSchedule(
        (
            ChaosEvent(
                at=1.0,
                kind="degrade",
                target="us-east-1->us-west-1",
                factor=0.5,
                duration=0.0,
            ),
        )
    )
    plan = dataclasses.replace(
        ExperimentPlan(seeds=(0, 1)),
        base_config=SimulationConfig().with_chaos(degrade),
    )
    sequential = _small_matrix(plan, schemes=(Scheme.SPARK,), jobs=1)
    parallel = _small_matrix(plan, schemes=(Scheme.SPARK,), jobs=2)
    assert len(sequential) == len(parallel) == 2
    for seq, par in zip(sequential, parallel):
        assert _comparable(seq) == _comparable(par)
        assert seq.chaos_events_applied == 1
