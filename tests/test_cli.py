"""CLI smoke tests (fast paths only)."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import clear_data_cache


@pytest.fixture(autouse=True)
def _clean():
    clear_data_cache()
    yield
    clear_data_cache()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_scheme_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "sort", "--scheme", "warp-drive"])


def test_run_command_prints_summary(capsys):
    code = main(["run", "sort", "--scheme", "spark"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Sort / Spark" in out
    assert "completion time" in out
    assert "stages:" in out


def test_compare_command_prints_table(capsys):
    code = main(["compare", "sort", "--seeds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    for scheme in ("Spark", "Centralized", "AggShuffle"):
        assert scheme in out


def test_lineage_command_shows_transfers(capsys):
    code = main(["lineage", "sort", "--scheme", "aggshuffle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "transfer#" in out
    assert "shuffle#" in out


def test_lineage_without_aggregation_has_no_transfers(capsys):
    code = main(["lineage", "sort", "--scheme", "spark"])
    out = capsys.readouterr().out
    assert code == 0
    assert "transfer#" not in out
    assert "shuffle#" in out


def test_unknown_workload_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "mystery"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unknown workload 'mystery'" in err
    for name in ("wordcount", "sort", "terasort", "pagerank", "naivebayes"):
        assert name in err


def test_profile_flag_appends_cprofile_report(capsys):
    code = main(["--profile", "5", "run", "sort", "--scheme", "spark"])
    out = capsys.readouterr().out
    assert code == 0
    # Normal output first, then the profiler table.
    assert "Sort / Spark" in out
    assert "cProfile — top 5 by cumulative time" in out
    assert "cumtime" in out


def test_profile_flag_skips_report_when_command_fails(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--profile", "3", "run", "nosuchworkload"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "cProfile" not in captured.out
    assert "unknown workload 'nosuchworkload'" in captured.err


# ----------------------------------------------------------------------
# chaos specs (timed fault injection)
# ----------------------------------------------------------------------
def test_chaos_malformed_spec_names_offending_token():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "sort", "--chaos", "blob_outage:us-east-1@5+later"])
    assert "'later'" in str(excinfo.value)


def test_chaos_unknown_kind_named():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "sort", "--chaos", "warp:us-east-1@5"])
    assert "'warp'" in str(excinfo.value)


def test_chaos_new_kinds_accepted(capsys):
    code = main([
        "run", "sort", "--scheme", "remoteshuffle", "--seed", "0",
        "--chaos", "shuffle_worker:us-west-1@5",
        "--chaos", "blob_outage:us-east-1@3+4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    # shuffle_worker applies (pool worker lost); blob_outage is skipped
    # and recorded for a backend without an object store.
    assert "chaos" in out
    assert "1/2" in out


def test_chaos_blob_outage_applies_on_blob_backend(capsys):
    code = main([
        "run", "sort", "--scheme", "blobshuffle", "--seed", "0",
        "--chaos", "blob_outage:us-east-1@3+4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1" in out


# ----------------------------------------------------------------------
# stream subcommand (multi-tenant job streams)
# ----------------------------------------------------------------------
def test_stream_command_prints_tenant_table(capsys):
    code = main([
        "stream",
        "--arrival", "poisson:120:6",
        "--tenants", "prod:4,batch:1:2",
        "--policy", "fair",
        "--scheme", "spark",
        "--max-concurrent", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "prod" in out and "batch" in out
    assert "jobs" in out.lower()


def test_stream_bad_arrival_rate_names_token(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--arrival", "poisson:xx:15"])
    message = str(excinfo.value)
    assert "--arrival" in message
    assert "'xx'" in message


def test_stream_unknown_arrival_process_named(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--arrival", "warp:12:15"])
    assert "'warp'" in str(excinfo.value)


def test_stream_bad_tenant_weight_names_token(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--tenants", "alpha:heavy"])
    message = str(excinfo.value)
    assert "--tenants" in message
    assert "'heavy'" in message


def test_stream_unknown_policy_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--policy", "lottery"])
    assert "'lottery'" in str(excinfo.value)


# ----------------------------------------------------------------------
# fuzz subcommand and the chaos token expansions it feeds
# ----------------------------------------------------------------------
def test_fuzz_command_prints_campaign_summary(capsys):
    code = main([
        "fuzz", "--schedules", "5", "--seed", "3",
        "--backends", "fetch,push_aggregate",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign: seed=3 schedules=5" in out
    assert "coverage" in out


def test_fuzz_unknown_backend_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--schedules", "2", "--backends", "warp"])
    assert "'warp'" in str(excinfo.value)


def test_fuzz_unknown_policy_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--schedules", "2", "--policies", "yolo"])
    assert "'yolo'" in str(excinfo.value)


def test_chaos_random_token_expands_into_events(capsys):
    code = main([
        "run", "sort", "--scheme", "spark", "--seed", "0",
        "--chaos", "random:2@5", "--flow-retry",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos" in out
    assert "2 event(s)" in out


def test_chaos_random_malformed_token_named():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "sort", "--chaos", "random:x@1"])
    assert "'random:x@1'" in str(excinfo.value)


def test_chaos_partition_spec_accepted(capsys):
    code = main([
        "run", "sort", "--scheme", "aggshuffle", "--seed", "0",
        "--chaos", "partition:us-east-1->us-west-1@5+10",
        "--flow-retry",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1" in out


def test_chaos_artifact_token_replays_schedule(tmp_path, capsys):
    import json

    artifact = tmp_path / "finding.json"
    artifact.write_text(json.dumps({
        "version": 1,
        "schedule": ["partition:us-east-1->us-west-1@5+10"],
    }))
    code = main([
        "run", "sort", "--scheme", "aggshuffle", "--seed", "0",
        "--chaos", f"@{artifact}", "--flow-retry",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1" in out


def test_chaos_artifact_token_missing_file_named():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "sort", "--chaos", "@/no/such/artifact.json"])
    assert "artifact" in str(excinfo.value)
