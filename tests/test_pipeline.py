import hashlib
import json
import time
from unittest import mock

import pytest

from premarshal import astar, exact, fixing
from premarshal.generate import GenConfig, generate
from premarshal.layout import build_layout
from premarshal.model import Solution
from premarshal.pipeline import prepare, solve_instance


def _record_deadlines(monkeypatch):
    """Wrap both solvers; the returned dict gets each one's deadline and
    the clock when A* returns and when the exact search starts."""
    got = {}
    real_astar, real_exact = astar.solve_astar, exact.solve_exact

    def recording_astar(config, dmat, deadline):
        got["astar"] = deadline
        result = real_astar(config, dmat, deadline)
        got["astar_returned"] = time.perf_counter()
        return result

    def recording_exact(config, dmat, ub, deadline):
        got["exact_started"] = time.perf_counter()
        got["exact"] = deadline
        return real_exact(config, dmat, ub, deadline)

    monkeypatch.setattr(astar, "solve_astar", recording_astar)
    monkeypatch.setattr(exact, "solve_exact", recording_exact)
    return got


BUDGET_INSTANCE = GenConfig(bay=(4, 4), warehouse=(2, 2), fill=0.8, groups=10, seed=3)


def test_exact_bootstrap_shares_the_callers_budget(monkeypatch):
    """A* and the exact search get one deadline, the timeout after a clock
    read within the call."""
    got = _record_deadlines(monkeypatch)
    instance = generate(BUDGET_INSTANCE)
    started = time.perf_counter()
    result, _prepared = solve_instance(instance, "exact", timeout_s=5.0)
    ended = time.perf_counter()
    assert isinstance(result, Solution)
    assert got["astar"] == got["exact"]
    assert started + 5.0 <= got["astar"] <= ended + 5.0


def test_default_budgets_are_the_commands(monkeypatch):
    """With no timeout, A* gets 600 s from a clock read within the call
    and the exact search 3,600 s from when A* returns."""
    got = _record_deadlines(monkeypatch)
    instance = generate(BUDGET_INSTANCE)
    started = time.perf_counter()
    result, _prepared = solve_instance(instance, "exact")
    assert isinstance(result, Solution)
    assert started + 600.0 <= got["astar"] <= got["astar_returned"] + 600.0
    assert got["astar_returned"] + 3600.0 <= got["exact"] <= got["exact_started"] + 3600.0


def test_prepare_builds_each_bays_lanes_once():
    """The walk's lanes are numbered as built; replay's rebuild from the
    direction rows gives the same lanes."""
    # Two bays of floor 0 and two of floor 1, whose bounds selection reads.
    instance = generate(GenConfig(bay=(4, 4), warehouse=(2, 2), fill=0.9, groups=10, seed=1))
    with mock.patch.object(fixing, "induced_lanes", wraps=fixing.induced_lanes) as built:
        prepared = prepare(instance)
    assert not built.called
    assert [a.misplaced for a in prepared.assignments] == [1, 0, 1, 0]
    rebuilt = fixing.to_virtual_lanes(instance, prepared.assignments, build_layout(instance))
    assert rebuilt == prepared.config


def test_prepare_builds_no_cost_table_on_bays_of_floor_0():
    """Each bay's first candidate comes from the zero search, and selection
    stops at it, so the DP's tables are never built."""
    instance = generate(GenConfig(bay=(3, 3), warehouse=(3, 3), fill=0.4, groups=5, seed=1))
    with mock.patch.object(fixing, "_BayTables", side_effect=AssertionError("cost tables built")):
        prepared = prepare(instance)
    assert [a.misplaced for a in prepared.assignments] == [0] * 9


def _prepared_digest(prepared) -> str:
    """sha256 of the JSON of what ``prepare`` hands the solvers: every
    assignment (rows, misplaced) and the config's contents, points and
    capacities."""
    config = prepared.config
    outputs = [
        [[list(a.rows), a.misplaced] for a in prepared.assignments],
        [list(lane) for lane in config.contents],
        list(config.points),
        list(config.capacities),
    ]
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


# Per instance (bay side, warehouse side, fill, groups, seed), the digest of
# ``prepare``'s outputs: the five prepare-large and four astar-wide instances
# of perfbench, recorded before the fixing DP read each bay as one grid.  Their plans are pinned too, but a k = 0 plan has no moves,
# so only this digest sees the assignments and lanes of the prepare-large ones.
PREPARED_DIGESTS = {
    (3, 12, 0.6, 10, 1):
        "bf089603718f7afbb14ee6a8a7e433426f4f96cb62b79396667ebe9a60b0c303",
    (3, 12, 0.6, 10, 2):
        "07d2b5a00912a105644b184ae902f24ed0a22d78a718d98edbf2638c6410b6de",
    (3, 10, 0.6, 10, 1):
        "f43d6620baf13f4cd09c308b18a52ba3976337f587ad0333cb969b1a268b74be",
    (3, 10, 0.4, 5, 2):
        "75f3244ce88e5eac8c438b5045aa31e5f8d04630373166f4f1f47f81dd7b5f1d",
    (4, 8, 0.4, 5, 2):
        "bbc24736dcb08998e931a3c514fb6ca3d8dadd6c9b4367a4c3ec8e20b63f585a",
    (3, 7, 0.9, 10, 1):
        "8fd19580db0f65b89118cc6e3fb8e6ed7996b0e0dcb50d4a16c43aed176f0ff4",
    (5, 3, 0.8, 10, 1):
        "b3c54224ded16e494d50d23d47a2ddef78da5630e4c4d0d521c978432a38f543",
    (5, 3, 0.9, 10, 1):
        "643e3e2673e5b06482cb9da3d225d9a70c34dfebe319e79dbc5ebf46b150ec95",
    (6, 2, 0.8, 10, 1):
        "bb4d0f234e64ad2f29cf635ff1f0fb22f24d7e6d937156de0bcdea612ff0872c",
}


@pytest.mark.parametrize("spec", list(PREPARED_DIGESTS),
                         ids=lambda spec: "{0}x{0}-{1}x{1}-{2}-G{3}-s{4}".format(*spec))
def test_prepare_outputs_pinned(spec):
    bay, warehouse, fill, groups, seed = spec
    instance = generate(GenConfig(bay=(bay, bay), warehouse=(warehouse, warehouse),
                                  fill=fill, groups=groups, seed=seed))
    assert _prepared_digest(prepare(instance)) == PREPARED_DIGESTS[spec]
