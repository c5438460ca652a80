"""Shared fixtures.

The expensive populations are session-scoped: the exhaustive n=5 member
index lists take a few seconds each to build and several tests reuse them.
Digraphs are stored as enumeration indices and rebuilt on demand, which is
cheap and keeps memory flat.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from arclocal import RandomModel, random_class_member
from oracles import collect_member_indices

RANDOM_IN_COUNT = 10_000
RANDOM_SMALL_COUNT = 1_000


@pytest.fixture(scope="session")
def n5_in_member_indices() -> list[int]:
    return collect_member_indices(5, "in")


@pytest.fixture(scope="session")
def n5_als_member_indices() -> list[int]:
    return collect_member_indices(5, "als")


def build_population(cls: str, count: int, n_range: tuple[int, int], seed_base: int):
    lo, hi = n_range
    members = []
    for i in range(count):
        n = lo + i % (hi - lo + 1)
        model = RandomModel(n=n, seed=seed_base + i)
        d = random_class_member(model, cls)
        assert d is not None, f"no member for seed {seed_base + i}"
        members.append(d)
    return members


@pytest.fixture(scope="session")
def random_in_population():
    """10^4 connected arc-locally in-semicomplete digraphs, n in [6, 10]."""
    return build_population("in", RANDOM_IN_COUNT, (6, 10), seed_base=11_000_000)


@pytest.fixture(scope="session")
def random_in_small_population():
    """10^3 connected arc-locally in-semicomplete digraphs, n in [6, 9]."""
    return build_population("in", RANDOM_SMALL_COUNT, (6, 9), seed_base=12_000_000)


@pytest.fixture(scope="session")
def random_als_population():
    """10^3 connected arc-locally semicomplete digraphs, n in [6, 10]."""
    return build_population("als", RANDOM_SMALL_COUNT, (6, 10), seed_base=13_000_000)
