import collections
import hashlib

import pytest

from premarshal import files, generate
from premarshal.fixing import has_hole_free_assignment
from premarshal.generate import GenConfig, GenerationFailed, target_loads


def _cfg(**overrides):
    base = dict(bay=(3, 3), warehouse=(2, 2), fill=0.4, groups=5, seed=7)
    base.update(overrides)
    return GenConfig(**base)


def test_target_loads_rounds_half_up():
    assert target_loads(0.4, 9) == 4
    assert target_loads(0.6, 9) == 5
    assert target_loads(0.9, 9) == 8
    assert target_loads(0.9, 36) == 32
    # the half case: round() would give 2 here
    assert target_loads(0.5, 5) == 3
    assert target_loads(0.0, 9) == 0
    assert target_loads(1.0, 9) == 9


def test_config_enforces_the_benchmark_grid():
    for bad in (
        dict(bay=(3, 4)),
        dict(bay=(7, 7)),
        dict(warehouse=(13, 13)),
        dict(warehouse=(2, 3)),
        dict(bay=(6, 6), warehouse=(12, 12)),
        dict(fill=0.5),
        dict(groups=7),
    ):
        with pytest.raises(ValueError):
            _cfg(**bad)
    # the same shapes pass once the grid restriction is lifted
    _cfg(bay=(2, 3), warehouse=(1, 1), fill=0.33, groups=3, unrestricted=True)


def test_config_rejects_nonsense_even_unrestricted():
    for bad in (
        dict(bay=(0, 3)),
        dict(warehouse=(1, 0)),
        dict(fill=-0.1),
        dict(fill=1.5),
        dict(groups=0),
    ):
        with pytest.raises(ValueError):
            _cfg(unrestricted=True, **bad)


def test_generate_is_byte_deterministic(tmp_path):
    config = _cfg(seed=123)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    files.write_instance(generate.generate(config), a)
    files.write_instance(generate.generate(config), b)
    assert a.read_bytes() == b.read_bytes()
    other = tmp_path / "c.json"
    files.write_instance(generate.generate(_cfg(seed=124)), other)
    assert a.read_bytes() != other.read_bytes()


@pytest.mark.parametrize(
    "bay,warehouse,fill,digest",
    [
        ((6, 6), (2, 2), 0.8, "83c461f6433e7da1461082b195c945e7c9c6bc84a9b6ee3fd1551b8924236975"),
        ((5, 5), (3, 3), 0.9, "d93c09befc3946007f4dc951d2d388a4523f5ffd7a900fcfc6d2eca542f2fe2b"),
        ((3, 3), (12, 12), 0.6, "ab666cc0765a464bf8283195896da0f5f269482c6ff3738e68209b744144e732"),
    ],
    ids=["6x6-2x2-0.8", "5x5-3x3-0.9", "3x3-12x12-0.6"],
)
def test_generated_bytes_are_pinned(tmp_path, bay, warehouse, fill, digest):
    """Growth draws and every assignability probe answer as when pinned.

    A probe that answers differently keeps or regrows another bay, and so
    changes the bytes.
    """
    config = GenConfig(bay=bay, warehouse=warehouse, fill=fill, groups=10, seed=1)
    path = tmp_path / "instance.json"
    files.write_instance(generate.generate(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_instance_shape_and_metadata():
    config = _cfg(seed=7)
    instance = generate.generate(config)
    assert instance.warehouse_rows == instance.warehouse_cols == 2
    assert len(instance.bays) == 4
    for bay in instance.bays:
        assert (bay.I, bay.J, bay.T, bay.G) == (3, 3, 1, 5)
        assert len(bay.occupancy) == 4  # target_loads(0.4, 9)
        for (i, j, t), g in bay.occupancy.items():
            assert 1 <= i <= 3 and 1 <= j <= 3 and t == 1
            assert 1 <= g <= 5
    assert instance.meta == {
        "seed": 7,
        "fill": 0.4,
        "classes": 5,
        "bay_layout": "3x3",
        "warehouse_layout": "2x2",
        "generator": "mt19937",
    }


def test_zero_fill_gives_empty_bays():
    config = _cfg(fill=0.0, warehouse=(1, 1), unrestricted=True)
    instance = generate.generate(config)
    assert all(not bay.occupancy for bay in instance.bays)


@pytest.mark.parametrize(
    "bay,fill,groups",
    [((3, 3), 0.6, 5), ((4, 4), 0.8, 10), ((5, 5), 0.9, 5), ((6, 6), 0.9, 10)],
)
def test_every_generated_bay_is_assignable(bay, fill, groups):
    config = _cfg(bay=bay, fill=fill, groups=groups, seed=31)
    per_bay = target_loads(fill, bay[0] * bay[1])
    for bay_spec in generate.generate(config).bays:
        assert len(bay_spec.occupancy) == per_bay
        assert has_hole_free_assignment(bay_spec)


def test_positions_do_not_depend_on_the_group_count():
    """Matched seeds differ only in the drawn priorities, never in geometry."""
    for seed in range(20, 26):
        five = generate.generate(_cfg(fill=0.8, groups=5, seed=seed))
        ten = generate.generate(_cfg(fill=0.8, groups=10, seed=seed))
        for b5, b10 in zip(five.bays, ten.bays):
            assert sorted(b5.occupancy) == sorted(b10.occupancy)


def test_groups_are_roughly_uniform():
    counts = collections.Counter()
    for seed in range(40, 46):
        instance = generate.generate(_cfg(warehouse=(3, 3), fill=0.9, seed=seed))
        for bay in instance.bays:
            counts.update(bay.occupancy.values())
    assert set(counts) == {1, 2, 3, 4, 5}
    total = sum(counts.values())
    assert total == 6 * 9 * 8
    for g in range(1, 6):
        assert 0.5 * total / 5 < counts[g] < 1.5 * total / 5


def test_retry_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(generate, "has_hole_free_assignment", lambda bay: False)
    with pytest.raises(GenerationFailed):
        generate.generate(_cfg(warehouse=(1, 1), fill=0.4, unrestricted=True))
