import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from premarshal import bench, cli, files


@pytest.fixture()
def instance_path(tmp_path):
    """A 4x4 instance that needs two moves (seed picked for a non-empty plan)."""
    path = tmp_path / "instance.json"
    code = cli.main([
        "generate", "--bay", "4x4", "--warehouse", "2x2", "--fill", "0.8",
        "--classes", "10", "--seed", "2", "-o", str(path),
    ])
    assert code == cli.EXIT_OK
    return path


def _solve(instance_path, tmp_path, algo, *extra):
    out = tmp_path / f"{algo}.json"
    code = cli.main([
        "solve", "--algo", algo, "--in", str(instance_path), "-o", str(out), *extra,
    ])
    return code, out


def test_generate_reports_the_load_count(tmp_path, capsys):
    path = tmp_path / "instance.json"
    code = cli.main([
        "generate", "--bay", "4x4", "--warehouse", "2x2", "--fill", "0.8",
        "--classes", "10", "--seed", "2", "-o", str(path),
    ])
    assert code == cli.EXIT_OK
    assert f"wrote {path} (52 loads)" in capsys.readouterr().out  # 4 bays x 13


def test_generate_rejects_off_grid_configs(tmp_path, capsys):
    code = cli.main([
        "generate", "--bay", "3x3", "--warehouse", "2x2", "--fill", "0.5",
        "--classes", "5", "--seed", "1", "-o", str(tmp_path / "x.json"),
    ])
    assert code == cli.EXIT_USAGE
    assert "premarshal:" in capsys.readouterr().err


def test_a_malformed_layout_label_is_a_usage_error(tmp_path):
    """'3_0x3' is no 30x3 bay, even where --unrestricted admits one."""
    out = tmp_path / "x.json"
    run = _run_cli(["generate", "--bay", "3_0x3", "--warehouse", "1x1", "--fill", "0.4",
                    "--classes", "5", "--seed", "1", "--unrestricted", "-o", str(out)])
    assert run.returncode == cli.EXIT_USAGE
    assert "is not of the form RxC" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_a_bay_that_cannot_be_grown_exits_3(tmp_path):
    """6x6/6x6/0.9/s1 exhausts its retry budget, every probe real."""
    out = tmp_path / "x.json"
    run = _run_cli(["generate", "--bay", "6x6", "--warehouse", "6x6", "--fill", "0.9",
                    "--classes", "10", "--seed", "1", "-o", str(out)])
    assert run.returncode == cli.EXIT_INVALID
    assert "no assignable 6x6 bay" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_solve_verify_round_trip(instance_path, tmp_path, capsys):
    code, astar_out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("astar: k=2 distance=")

    code = cli.main(["verify", "--in", str(instance_path), "--sol", str(astar_out)])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True

    code, exact_out = _solve(
        instance_path, tmp_path, "exact", "--ub-from", str(astar_out)
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("exact: k=")
    data = files.read_solution(exact_out)
    astar_data = files.read_solution(astar_out)
    assert data["k"] <= astar_data["k"]
    assert data["total_distance"] <= astar_data["total_distance"]

    code = cli.main(["verify", "--in", str(instance_path), "--sol", str(exact_out)])
    assert code == cli.EXIT_OK


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert cli.main(["solve", "--algo", "simplex", "--in", "x", "-o", "y"]) \
        == cli.EXIT_USAGE
    capsys.readouterr()


def test_ub_from_is_exact_only(instance_path, tmp_path, capsys):
    code, astar_out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_OK
    code, _ = _solve(instance_path, tmp_path, "astar", "--ub-from", str(astar_out))
    assert code == cli.EXIT_USAGE
    assert "--ub-from only applies" in capsys.readouterr().err


@pytest.mark.parametrize("missing", [True, False])
def test_ub_from_with_astar_fails_before_the_instance_is_read(instance_path, tmp_path, capsys,
                                                              missing):
    infile = tmp_path / "missing.json" if missing else instance_path
    with mock.patch.object(cli.pipeline, "prepare", wraps=cli.pipeline.prepare) as prepare:
        code, out = _solve(infile, tmp_path, "astar", "--ub-from", str(tmp_path / "ub.json"))
    assert code == cli.EXIT_USAGE
    assert "--ub-from only applies" in capsys.readouterr().err
    prepare.assert_not_called()
    assert not out.exists()


def test_missing_inputs_exit_3(tmp_path, capsys):
    ghost = str(tmp_path / "missing.json")
    assert cli.main(["solve", "--algo", "astar", "--in", ghost, "-o", ghost]) \
        == cli.EXIT_INVALID
    assert cli.main(["verify", "--in", ghost, "--sol", ghost]) == cli.EXIT_INVALID
    assert cli.main(["distances", "--in", ghost, "-o", ghost]) == cli.EXIT_INVALID
    capsys.readouterr()


def test_timeout_exits_2(instance_path, tmp_path, capsys):
    code, _ = _solve(instance_path, tmp_path, "exact", "--timeout-s", "0")
    assert code == cli.EXIT_TIMEOUT
    assert "solver timed out" in capsys.readouterr().err


def test_timeout_covers_preprocessing(instance_path, tmp_path, capsys, monkeypatch):
    """A budget that preprocessing uses up leaves the solver none: the
    command times out, though A* alone would solve this instance within it."""
    prepare = cli.pipeline.prepare

    def slow(instance):
        prepared = prepare(instance)
        time.sleep(0.6)
        return prepared

    monkeypatch.setattr(cli.pipeline, "prepare", slow)
    code, out = _solve(instance_path, tmp_path, "astar", "--timeout-s", "0.5")
    assert code == cli.EXIT_TIMEOUT
    assert "solver timed out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["nan", "-5", "inf", "soon"])
def test_budgets_that_are_no_finite_number_of_seconds_exit_1(instance_path, tmp_path,
                                                              capsys, budget):
    """NaN would disable the budget (time >= nan is never true) and a
    negative one would time out at once."""
    code, out = _solve(instance_path, tmp_path, "astar", "--timeout-s", budget)
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    assert "--timeout-s" in capsys.readouterr().err


def test_out_of_memory_exits_2_without_a_traceback(instance_path, tmp_path, capsys,
                                                   monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.pipeline, "solve_instance", exhausted)
    code, out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_TIMEOUT
    err = capsys.readouterr().err
    assert "solver ran out of memory" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_in_preprocessing_exits_2(instance_path, tmp_path, capsys,
                                                monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.pipeline, "prepare", exhausted)
    code, out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_TIMEOUT
    err = capsys.readouterr().err
    assert "preprocessing ran out of memory" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_flags_a_tampered_solution(instance_path, tmp_path, capsys):
    code, astar_out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_OK
    capsys.readouterr()
    data = files.read_solution(astar_out)
    data["k"] += 1
    astar_out.write_text(json.dumps(data))
    code = cli.main(["verify", "--in", str(instance_path), "--sol", str(astar_out)])
    assert code == cli.EXIT_INVALID
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["violations"][0]["code"] == "k-mismatch"


def test_verify_reports_missing_assignments(instance_path, tmp_path, capsys):
    code, astar_out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_OK
    capsys.readouterr()
    data = files.read_solution(astar_out)
    data["assignments"] = data["assignments"][:1]
    astar_out.write_text(json.dumps(data))
    code = cli.main(["verify", "--in", str(instance_path), "--sol", str(astar_out)])
    assert code == cli.EXIT_INVALID
    report = json.loads(capsys.readouterr().out)
    assert report["violations"][0]["code"] == "assignments"


def test_verify_rejects_directions_outside_nesw(tmp_path):
    """A plan whose cells all face "X" puts no load in a lane; with no moves
    it must not pass as sorted."""
    inst, plan = tmp_path / "inst.json", tmp_path / "plan.json"
    assert cli.main(["generate", "--bay", "4x4", "--warehouse", "2x2", "--fill", "0.9",
                     "--classes", "10", "--seed", "8", "-o", str(inst)]) == cli.EXIT_OK
    assert cli.main(["solve", "--algo", "astar", "--in", str(inst), "-o", str(plan)]) == cli.EXIT_OK
    data = files.read_solution(plan)
    assert data["k"] > 0
    for entry in data["assignments"]:
        entry["rows"] = ["X" * len(row) for row in entry["rows"]]
    data.update(moves=[], k=0, total_distance=0)
    plan.write_text(json.dumps(data))
    run = _run_cli(["verify", "--in", str(inst), "--sol", str(plan)])
    assert run.returncode == cli.EXIT_INVALID
    assert "Traceback" not in run.stderr
    report = json.loads(run.stdout)
    assert report["ok"] is False
    assert report["violations"][0]["code"] == "setup"


def test_ub_from_must_match_the_instance(instance_path, tmp_path, capsys):
    code, astar_out = _solve(instance_path, tmp_path, "astar")
    assert code == cli.EXIT_OK

    wrong_algo = tmp_path / "claims-exact.json"
    data = files.read_solution(astar_out)
    data["algo"] = "exact"
    wrong_algo.write_text(json.dumps(data))
    code, _ = _solve(instance_path, tmp_path, "exact", "--ub-from", str(wrong_algo))
    assert code == cli.EXIT_INVALID
    assert "astar solution" in capsys.readouterr().err

    rebound = tmp_path / "rebound.json"
    data = files.read_solution(astar_out)
    data["assignments"][0]["rows"] = ["EEEE", "EEEE", "EEEE", "EEEE"]
    rebound.write_text(json.dumps(data))
    code, _ = _solve(instance_path, tmp_path, "exact", "--ub-from", str(rebound))
    assert code == cli.EXIT_INVALID
    assert "different access assignments" in capsys.readouterr().err

    inflated = tmp_path / "inflated.json"
    data = files.read_solution(astar_out)
    data["total_distance"] += 1
    inflated.write_text(json.dumps(data))
    code, _ = _solve(instance_path, tmp_path, "exact", "--ub-from", str(inflated))
    assert code == cli.EXIT_INVALID
    assert "fails replay" in capsys.readouterr().err

    ghost = str(tmp_path / "missing.json")
    code, _ = _solve(instance_path, tmp_path, "exact", "--ub-from", ghost)
    assert code == cli.EXIT_INVALID
    capsys.readouterr()


def _run_cli(command):
    """``premarshal`` in a fresh interpreter, so that a traceback shows."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "premarshal.cli", *command],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("content", [
    "[1, 2]", "null", '"hello"', '{"meta": "x", "bays": []}',
])
def test_non_object_instances_exit_3_without_a_traceback(tmp_path, content):
    path = tmp_path / "instance.json"
    path.write_text(content)
    run = _run_cli(["solve", "--algo", "astar", "--in", str(path),
                    "-o", str(tmp_path / "plan.json")])
    assert run.returncode == cli.EXIT_INVALID, run.stderr
    assert "Traceback" not in run.stderr
    assert "cannot read instance" in run.stderr


def _second_load_at_a_cell(bay):
    first = bay["loads"][0]
    bay["loads"].append({**first, "g": first["g"] % bay["G"] + 1})


def _fractional_group(bay):
    bay["loads"][0]["g"] = 2.5


def _float_width(bay):
    bay["I"] = float(bay["I"])


def _bool_cell(bay):
    bay["loads"][0]["i"] = True


@pytest.mark.parametrize("tamper", [
    _second_load_at_a_cell, _fractional_group, _float_width, _bool_cell,
])
def test_instances_with_malformed_loads_exit_3_without_a_traceback(instance_path, tmp_path,
                                                                   tamper):
    data = json.loads(instance_path.read_text())
    tamper(data["bays"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    run = _run_cli(["solve", "--algo", "astar", "--in", str(path),
                    "-o", str(tmp_path / "plan.json")])
    assert run.returncode == cli.EXIT_INVALID, run.stderr
    assert "Traceback" not in run.stderr
    assert "cannot read instance" in run.stderr


@pytest.fixture(scope="module")
def probe_plan(tmp_path_factory):
    """4x4/2x2/0.9/G10/s8 with its A* plan, written by the CLI."""
    root = tmp_path_factory.mktemp("probe")
    inst, plan = root / "instance.json", root / "astar.json"
    assert cli.main([
        "generate", "--bay", "4x4", "--warehouse", "2x2", "--fill", "0.9",
        "--classes", "10", "--seed", "8", "-o", str(inst),
    ]) == cli.EXIT_OK
    assert cli.main(["solve", "--algo", "astar", "--in", str(inst), "-o", str(plan)]) \
        == cli.EXIT_OK
    return inst, plan


def _unquoted_k(data):
    data["k"] = "abc"


def _fractional_k(data):
    data["k"] += 0.5


def _move_without_source(data):
    del data["moves"][0]["from_lane"]


def _move_not_an_object(data):
    data["moves"][0] = [1, 2]


def _null_moves(data):
    data["moves"] = None


@pytest.mark.parametrize("tamper", [
    _unquoted_k, _fractional_k, _move_without_source, _move_not_an_object, _null_moves,
])
def test_malformed_solutions_exit_3_without_a_traceback(probe_plan, tmp_path, tamper):
    inst, plan = probe_plan
    data = json.loads(plan.read_text())
    tamper(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (
        ["verify", "--in", str(inst), "--sol", str(bad)],
        ["solve", "--algo", "exact", "--in", str(inst), "--ub-from", str(bad),
         "-o", str(tmp_path / "exact.json")],
    ):
        run = _run_cli(command)
        assert run.returncode == cli.EXIT_INVALID, run.stderr
        assert "Traceback" not in run.stderr
        if command[0] == "verify":
            report = json.loads(run.stdout)
            assert [v["code"] for v in report["violations"]] == ["malformed"]


def test_a_plan_with_forged_assignments_exits_3_without_a_traceback(probe_plan, tmp_path):
    """A second, different entry for bay 0 put first and one for a bay the
    instance lacks: verify and --ub-from both reject the assignments."""
    inst, plan = probe_plan
    data = json.loads(plan.read_text())
    data["assignments"][:0] = [{"bay": 0, "rows": ["EEEE"] * 4}]
    data["assignments"].append({"bay": 99, "rows": ["junk"]})
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    run = _run_cli(["verify", "--in", str(inst), "--sol", str(forged)])
    assert run.returncode == cli.EXIT_INVALID, run.stderr
    assert "Traceback" not in run.stderr
    report = json.loads(run.stdout)
    assert report["ok"] is False
    assert [v["code"] for v in report["violations"]] == ["assignments"]
    run = _run_cli(["solve", "--algo", "exact", "--in", str(inst), "--ub-from", str(forged),
                    "-o", str(tmp_path / "exact.json")])
    assert run.returncode == cli.EXIT_INVALID, run.stderr
    assert "Traceback" not in run.stderr
    assert "bad assignments" in run.stderr


@pytest.mark.parametrize("command", ["generate", "solve", "distances", "bench"])
def test_unwritable_output_exits_3_without_a_traceback(instance_path, tmp_path, capsys,
                                                       command):
    out = str(tmp_path / "no_such_dir" / "out")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
        "seeds": [1],
        "algos": ["astar"],
    }))
    args = {
        "generate": ["--bay", "4x4", "--warehouse", "2x2", "--fill", "0.8",
                     "--classes", "10", "--seed", "2"],
        "solve": ["--algo", "astar", "--in", str(instance_path)],
        "distances": ["--in", str(instance_path)],
        "bench": ["--suite", str(suite), "--jobs", "1"],
    }[command]
    # In process, so that ``bench`` is seen to fail before it solves a row;
    # a traceback would surface here as the exception itself.
    with mock.patch.object(bench, "run_suite", side_effect=AssertionError("suite solved")):
        code = cli.main([command, *args, "-o", out])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"premarshal: cannot write {out}: No such file or directory\n"


def test_bench_writes_csv_and_aggregate(tmp_path, capsys, monkeypatch):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
        "seeds": [1, 2],
        "algos": ["astar"],
    }))
    out = tmp_path / "results.csv"
    monkeypatch.setenv("MARSHAL_JOBS", "1")
    code = cli.main(["bench", "--suite", str(suite), "-o", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("bay_layout,warehouse_layout,fill")
    assert len(lines) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["solved"]["3x3/2x2/0.4/5/astar"] == "2/2"


def test_bench_rejects_a_job_count_that_is_no_integer(tmp_path, monkeypatch):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
        "seeds": [1],
        "algos": ["astar"],
    }))
    monkeypatch.setenv("MARSHAL_JOBS", "abc")
    run = _run_cli(["bench", "--suite", str(suite), "-o", str(tmp_path / "results.csv")])
    assert run.returncode == cli.EXIT_USAGE
    assert run.stderr == "premarshal: MARSHAL_JOBS must be an integer, not 'abc'\n"


@pytest.mark.parametrize("flag, env, source", [
    (["--jobs", "0"], None, "--jobs must be at least 1, not 0"),
    (["--jobs", "-3"], None, "--jobs must be at least 1, not -3"),
    ([], "0", "MARSHAL_JOBS must be at least 1, not 0"),
])
def test_bench_rejects_a_job_count_below_one(tmp_path, capsys, monkeypatch, flag, env, source):
    """A job count below 1 is a usage error, not a serial run, and it is
    found before ``-o`` is opened."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(_SMALL_SUITE))
    out = tmp_path / "results.csv"
    if env is not None:
        monkeypatch.setenv("MARSHAL_JOBS", env)
    with mock.patch.object(bench, "run_suite", side_effect=AssertionError("suite solved")):
        code = cli.main(["bench", "--suite", str(suite), *flag, "-o", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"premarshal: {source}\n"
    assert not out.exists()


def test_bench_rejects_broken_suites(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text("{not json")
    out = str(tmp_path / "results.csv")
    assert cli.main(["bench", "--suite", str(suite), "-o", out]) == cli.EXIT_INVALID
    suite.write_text(json.dumps({"seeds": [1], "algos": ["astar"]}))
    assert cli.main(["bench", "--suite", str(suite), "-o", out]) == cli.EXIT_INVALID
    suite.write_text(json.dumps({
        "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
        "seeds": [1], "algos": ["astar"], "timeout_s": {"astar": float("nan")},
    }))
    assert cli.main(["bench", "--suite", str(suite), "-o", out]) == cli.EXIT_INVALID
    assert "bad suite: a time budget" in capsys.readouterr().err


_SMALL_SUITE = {
    "configs": [{"bay": "3x3", "warehouse": "2x2", "fill": 0.4, "classes": 5}],
    "seeds": [1],
    "algos": ["astar"],
}


@pytest.mark.parametrize("suite", [
    [_SMALL_SUITE],
    {**_SMALL_SUITE, "timeout_s": 5},
    {**_SMALL_SUITE, "timeout_s": [1]},
    {**_SMALL_SUITE, "algos": "astar"},
    {**_SMALL_SUITE, "algos": ["bogus"]},
    {**_SMALL_SUITE, "seeds": [2.7]},
])
def test_malformed_suites_exit_3_and_leave_the_output_be(tmp_path, suite):
    """The suite is checked before ``-o`` is opened, so an existing results
    file keeps its bytes and no row is solved."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out = tmp_path / "results.csv"
    out.write_bytes(b"bay_layout\r\nkept\r\n")
    run = _run_cli(["bench", "--suite", str(path), "-o", str(out)])
    assert run.returncode == cli.EXIT_INVALID, run.stderr
    assert run.stderr.startswith("premarshal: bad suite: ")
    assert "Traceback" not in run.stderr
    assert out.read_bytes() == b"bay_layout\r\nkept\r\n"


def test_distances_command(instance_path, tmp_path, capsys):
    out = tmp_path / "distances.csv"
    code = cli.main(["distances", "--in", str(instance_path), "-o", str(out)])
    assert code == cli.EXIT_OK
    message = capsys.readouterr().out
    assert message.startswith(f"wrote {out} (")
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("ap")
    assert len(lines) == int(message.split("(")[1].split()[0]) + 1


def test_distances_rejects_mixed_bay_sizes(tmp_path, capsys):
    bays = [
        {"I": 3, "J": 3, "T": 1, "G": 5, "access_sides": ["N", "E", "S", "W"],
         "loads": []},
        {"I": 4, "J": 4, "T": 1, "G": 5, "access_sides": ["N", "E", "S", "W"],
         "loads": []},
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"meta": {"warehouse_layout": "1x2"}, "bays": bays}
    ))
    out = str(tmp_path / "d.csv")
    assert cli.main(["distances", "--in", str(path), "-o", out]) == cli.EXIT_INVALID
    assert "premarshal:" in capsys.readouterr().err
