import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from premarshal.model import LaneConfiguration


class FakeDmat:
    """Distance lookup for tests that do not need a real layout.

    ``table[(p, q)]`` wins; anything missing falls back to |p - q| so every
    pair has some distance.
    """

    def __init__(self, table=None):
        self.table = table or {}

    def between(self, p, q):
        if (p, q) in self.table:
            return self.table[(p, q)]
        if (q, p) in self.table:
            return self.table[(q, p)]
        return abs(p - q)


class FakeClock:
    """A ``time`` stand-in whose clock reads 0, 1, 2, ... and counts its
    reads."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return self.reads - 1


def make_config(lanes, groups):
    """lanes: list of (capacity, contents tuple, access_point)."""
    return LaneConfiguration.build([(ap, cap, contents) for cap, contents, ap in lanes], groups)
