import io

import pytest

from premarshal import astar, bench


SUITE = {
    "configs": [
        {"bay": "3x3", "warehouse": "2x2", "fill": 0.6, "classes": 5},
        {"bay": "4x4", "warehouse": "2x2", "fill": 0.8, "classes": 10},
    ],
    "seeds": [2, 3],
    "algos": ["astar", "exact"],
    "timeout_s": {"exact": 120},
}


def test_suite_runs_expand_in_config_seed_algo_order():
    runs = bench.suite_runs(SUITE)
    assert [(r.config.bay_label, r.config.seed, r.algo) for r in runs] == [
        ("3x3", 2, "astar"), ("3x3", 2, "exact"),
        ("3x3", 3, "astar"), ("3x3", 3, "exact"),
        ("4x4", 2, "astar"), ("4x4", 2, "exact"),
        ("4x4", 3, "astar"), ("4x4", 3, "exact"),
    ]
    assert [r.timeout_s for r in runs[:2]] == [None, 120]
    assert runs[0].config.fill == 0.6 and runs[4].config.groups == 10


@pytest.mark.parametrize("budget", [float("nan"), -1, float("inf"), "soon", True, "5"])
def test_suite_runs_reject_budgets_that_are_no_finite_number_of_seconds(budget):
    with pytest.raises(ValueError):
        bench.suite_runs({**SUITE, "timeout_s": {"exact": 120, "astar": budget}})


@pytest.mark.parametrize("suite", [
    [SUITE],
    {**SUITE, "timeout_s": 5},
    {**SUITE, "timeout_s": [1]},
    {**SUITE, "timeout_s": {"bogus": 5}},
    {**SUITE, "algos": "astar"},
    {**SUITE, "algos": ["bogus"]},
    {**SUITE, "seeds": [2.7]},
    {**SUITE, "seeds": [True]},
    {**SUITE, "seeds": 2},
    {**SUITE, "configs": SUITE["configs"][0]},
    {**SUITE, "configs": ["3x3"]},
    {**SUITE, "configs": [{**SUITE["configs"][0], "classes": 5.5}]},
    {**SUITE, "unrestricted": "false"},
])
def test_suite_runs_reject_malformed_suites(suite):
    """A suite of the wrong shape fails as a whole, with ValueError, instead
    of crashing on it, running the letters of an algorithm name, writing a
    failed row for an unknown one or truncating a seed."""
    with pytest.raises(ValueError):
        bench.suite_runs(suite)


def _config(**changes):
    return {**SUITE, "configs": [{**SUITE["configs"][0], **changes}]}


@pytest.mark.parametrize("suite", [
    pytest.param({**SUITE, "seeds": [1, 1]}, id="repeated-seed"),
    pytest.param({**SUITE, "algos": ["astar", "astar"]}, id="repeated-algo"),
    pytest.param({**SUITE, "configs": [*SUITE["configs"], {**SUITE["configs"][0], "bay": "3X3"}]},
                 id="repeated-config"),
    pytest.param({**SUITE, "configs": [{**SUITE["configs"][0], "fill": fill} for fill in (1, 1.0)],
                  "unrestricted": True},
                 id="repeated-config-integer-fill"),
    pytest.param(_config(fill="0.8"), id="string-fill"),
    pytest.param(_config(fill=True), id="bool-fill"),
    pytest.param(_config(fill=None), id="null-fill"),
    pytest.param(_config(colour="red"), id="unknown-config-key"),
    pytest.param({**SUITE, "timeouts": {"astar": 5}}, id="unknown-suite-key"),
])
def test_suite_runs_reject_repeats_string_fills_and_unknown_keys(suite):
    """A repeated seed, algo or config would run the same rows twice, a string fill
    would run as the number it spells, and an unknown key, such as a
    misspelt ``timeout_s``, would be dropped, leaving every run on the
    default budgets."""
    with pytest.raises(ValueError):
        bench.suite_runs(suite)


def test_suite_runs_take_an_integer_fill():
    runs = bench.suite_runs({**_config(fill=1), "unrestricted": True})
    assert {r.config.fill for r in runs} == {1.0}


def test_suite_runs_respect_the_benchmark_grid():
    off_grid = {
        "configs": [{"bay": "2x2", "warehouse": "1x1", "fill": 0.3, "classes": 3}],
        "seeds": [1],
        "algos": ["astar"],
    }
    with pytest.raises(ValueError):
        bench.suite_runs(off_grid)
    runs = bench.suite_runs({**off_grid, "unrestricted": True})
    assert len(runs) == 1 and runs[0].config.unrestricted


def _strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in ("preprocessing_s", "solve_s")}
        for row in rows
    ]


def test_run_suite_rows_and_determinism():
    first = bench.run_suite(bench.suite_runs(SUITE))
    second = bench.run_suite(bench.suite_runs(SUITE))
    assert len(first) == 8
    assert _strip_timing(first) == _strip_timing(second)
    for row in first:
        assert row["solved"] is True and row["timed_out"] is False
    by_key = {(r["bay_layout"], r["seed"], r["algo"]): r for r in first}
    for bay_layout in ("3x3", "4x4"):
        for seed in (2, 3):
            astar_row = by_key[(bay_layout, seed, "astar")]
            exact_row = by_key[(bay_layout, seed, "exact")]
            assert exact_row["k"] <= astar_row["k"]
            assert exact_row["total_distance"] <= astar_row["total_distance"]


def test_run_suite_parallel_matches_serial():
    suite = {
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
        "seeds": [1, 2],
        "algos": ["astar", "exact"],
    }
    serial = bench.run_suite(bench.suite_runs(suite), jobs=1)
    parallel = bench.run_suite(bench.suite_runs(suite), jobs=2)
    assert _strip_timing(serial) == _strip_timing(parallel)


def test_run_group_runs_astar_once_for_both_algorithms(monkeypatch):
    """The exact cell takes its bounds from the A* cell before it, and finds
    the same rows as with its own A* bootstrap."""
    runs = bench.suite_runs({
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.6, "classes": 5}],
        "seeds": [2],
        "algos": ["astar", "exact"],
    })
    alone = bench.run_group(runs[1:])
    calls = []
    real = astar.solve_astar

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(astar, "solve_astar", counting)
    rows = bench.run_group(runs)
    assert len(calls) == 1
    assert [row["solved"] for row in rows] == [True, True]
    assert _strip_timing(rows[1:]) == _strip_timing(alone)


def test_run_one_timeout_row():
    run = bench.SuiteRun(
        config=bench.GenConfig(
            bay=(4, 4), warehouse=(2, 2), fill=0.8, groups=10, seed=2
        ),
        algo="exact",
        timeout_s=0.0,
    )
    row = bench.run_group([run])[0]
    assert row["timed_out"] is True and row["solved"] is False
    assert row["k"] == "" and row["nodes_evaluated"] != ""


def test_run_one_records_failures_instead_of_raising(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(bench, "generate", boom)
    run = bench.suite_runs(SUITE)[0]
    row = bench.run_group([run])[0]
    assert row["solved"] is False and row["timed_out"] is False
    assert row["k"] == "" and row["total_distance"] == ""
    assert "forced failure" in capsys.readouterr().err


def test_csv_columns_are_frozen():
    assert bench.CSV_COLUMNS == [
        "bay_layout", "warehouse_layout", "fill", "classes", "seed", "algo",
        "solved", "timed_out", "k", "total_distance", "nodes_evaluated",
        "preprocessing_s", "solve_s",
    ]
    rows = [
        {col: "" for col in bench.CSV_COLUMNS},
    ]
    out = io.StringIO()
    bench.write_results_csv(rows, out)
    header, blank, trailer = out.getvalue().split("\r\n")
    assert header == ",".join(bench.CSV_COLUMNS)
    assert blank == "," * (len(bench.CSV_COLUMNS) - 1)
    assert trailer == ""


def _row(seed, algo, solved=True, k="", distance="", layout="3x3"):
    return {
        "bay_layout": layout, "warehouse_layout": "2x2", "fill": 0.6,
        "classes": 5, "seed": seed, "algo": algo, "solved": solved,
        "timed_out": not solved, "k": k, "total_distance": distance,
        "nodes_evaluated": 1, "preprocessing_s": "0", "solve_s": "0",
    }


def test_aggregate_counts_agreement_and_gaps():
    rows = [
        _row(1, "astar", k=2, distance=7),
        _row(1, "exact", k=2, distance=2),
        _row(2, "astar", solved="True", k=0, distance=0),  # CSV string form
        _row(2, "exact", k=0, distance=0),
        _row(3, "astar", k=1, distance=3),
        _row(3, "exact", solved=False),
    ]
    summary = bench.aggregate(rows)
    assert summary["solved"]["3x3/2x2/0.6/5/astar"] == "3/3"
    assert summary["solved"]["3x3/2x2/0.6/5/exact"] == "2/3"
    assert summary["agreement"] == {
        "both_solved": 2, "same_k": 2, "same_distance": 1,
    }
    assert summary["relative_gaps"] == [(7 - 2) / 2]
    assert summary["mean_distance_per_move"]["astar"] == (7 + 0 + 3) / (2 + 0 + 1)
    assert summary["mean_distance_per_move"]["exact"] == 2 / 2
