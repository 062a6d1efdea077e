from unittest import mock

from premarshal import astar, exact, fixing
from premarshal.generate import GenConfig, generate
from premarshal.model import Solution
from premarshal.pipeline import prepare, solve_instance


def test_exact_bootstrap_shares_the_callers_budget(monkeypatch):
    """A* gets the whole timeout and exact what is left, never more."""
    got = {}
    real_astar, real_exact = astar.solve_astar, exact.solve_exact

    def recording_astar(config, dmat, timeout_s, depth_correction=False):
        got["astar"] = timeout_s
        return real_astar(config, dmat, timeout_s, depth_correction)

    def recording_exact(config, dmat, ub, timeout_s, depth_correction=False):
        got["exact"] = timeout_s
        return real_exact(config, dmat, ub, timeout_s, depth_correction)

    monkeypatch.setattr(astar, "solve_astar", recording_astar)
    monkeypatch.setattr(exact, "solve_exact", recording_exact)
    instance = generate(GenConfig(bay=(4, 4), warehouse=(2, 2), fill=0.8, groups=10, seed=3))
    result, _prepared = solve_instance(instance, "exact", timeout_s=5.0)
    assert isinstance(result, Solution)
    assert got["astar"] <= 5.0
    assert 0.0 <= got["exact"] <= 5.0


def test_prepare_builds_each_bays_lanes_once():
    """Selection's lanes are numbered as built; replay's rebuild gives the same lanes."""
    instance = generate(GenConfig(bay=(3, 3), warehouse=(3, 3), fill=0.6, groups=10, seed=1))
    with mock.patch.object(fixing, "induced_lanes", wraps=fixing.induced_lanes) as built:
        prepared = prepare(instance)
    assert built.call_count == len(instance.bays)
    rebuilt = fixing.to_virtual_lanes(instance, prepared.assignments, prepared.layout)
    assert rebuilt == prepared.config
