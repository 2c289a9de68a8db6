"""The generator's draws against ``random.Random``'s, bit for bit.

The generator calls only ``random()``, ``getrandbits()`` and
``gauss()``; it writes out every other draw it needs.  Each rewrite must
consume the same underlying bits and return the same value as the
library call it replaces, on the running Python, or every trace moves.
"""

import random

import pytest

from repro.workloads.generator import (
    _INDUCTION_REGS,
    _below,
    _expovariate,
    _shuffle,
    _uniform,
)

SEED = 20110212


@pytest.fixture
def streams():
    """``(library, ours)``: two generators on one seeded stream; each
    test checks that they end in the same state."""
    library, ours = random.Random(SEED), random.Random(SEED)
    yield library, ours
    assert ours.getstate() == library.getstate()


def test_below_draws_randrange(streams):
    library, ours = streams
    bounds = [1, 2, 3, 5, 12, 27, 1000, 2 ** 16, 2 ** 16 + 1] * 40
    assert [_below(ours.getrandbits, n) for n in bounds] \
        == [library.randrange(n) for n in bounds]


def test_choice_and_randint_rewrites(streams):
    library, ours = streams
    pools = [_INDUCTION_REGS, (1, 1, 1, 1, 2), list(range(33, 42)), [7]]
    ranges = [(1, 12), (0, 0), (0, 2), (0, 3)]
    for _ in range(60):
        for pool in pools:
            assert pool[_below(ours.getrandbits, len(pool))] \
                == library.choice(pool)
        for low, high in ranges:
            assert low + _below(ours.getrandbits, high - low + 1) \
                == library.randint(low, high)


def test_shuffle_rewrite(streams):
    library, ours = streams
    for size in list(range(12)) + [27, 40]:
        expected, actual = list(range(size)), list(range(size))
        library.shuffle(expected)
        _shuffle(ours.getrandbits, actual)
        assert actual == expected


def test_uniform_and_expovariate_rewrites(streams):
    library, ours = streams
    for _ in range(200):
        for low, high in ((0.4, 0.6), (0.01, 0.08)):
            assert _uniform(ours.random, low, high).hex() \
                == library.uniform(low, high).hex()
        for lambd in (1.0, 1.0 / 1.5, 1.0 / 4.0, 1.0 / 7.3):
            assert _expovariate(ours.random, lambd).hex() \
                == library.expovariate(lambd).hex()


def test_gauss_keeps_its_spare_across_other_draws(streams):
    """The skeleton interleaves ``gauss`` with rewritten draws; the
    spare normal ``gauss`` keeps between calls must survive them."""
    library, ours = streams
    for step in range(300):
        assert ours.gauss(9.0, 2.25).hex() == library.gauss(9.0, 2.25).hex()
        if step % 3:
            assert _below(ours.getrandbits, 5) == library.randrange(5)
            assert ours.random() == library.random()
