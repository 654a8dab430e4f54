import random
from itertools import chain, combinations

import pytest

from kostka import linalg, root_system
from kostka.rootdata import supported_types  # re-exported for the test modules


def systems(max_rank):
    return [root_system(letter, r) for letter, r in supported_types(max_rank)]


def all_subsets(rank):
    nodes = range(1, rank + 1)
    return chain.from_iterable(combinations(nodes, k) for k in range(rank + 1))


def random_dominant(rng: random.Random, rank, top=3):
    return tuple(rng.randint(0, top) for _ in range(rank))


@pytest.fixture
def solve_calls(monkeypatch):
    """The arguments of every ``linalg.solve_unique`` call the test makes, in order."""
    calls = []
    solve_unique = linalg.solve_unique

    def counted(*args):
        calls.append(args)
        return solve_unique(*args)

    monkeypatch.setattr(linalg, "solve_unique", counted)
    return calls
