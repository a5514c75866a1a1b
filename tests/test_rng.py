"""PhiloxReplay: numpy Generator draws replayed from raw Philox output, exactly."""

import random
from bisect import bisect_right

import numpy as np
import pytest

from womlab.rng import (GEOMETRIC_SEARCH_MIN_P, RAW_BLOCK, PhiloxReplay, geometric_thresholds,
                        make_rng)

# 2**31 + 1 rejects about half of its first draws.
INTEGER_HIS = (1, 2, 7, 999, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 5, 2 ** 32)
GEOMETRIC_PS = (GEOMETRIC_SEARCH_MIN_P, 0.37, 0.63, 0.9, 1.0)
# numpy samples these from an exponential, which the replay leaves to numpy.
EXPONENTIAL_PS = (0.01, 0.2, 0.33)
# (pop, k): Floyd plus shuffle, and numpy's tail shuffle for pop > 10000, k > pop // 50.
CHOICE_SIZES = ((2, 1), (3, 2), (17, 5), (17, 16), (1000, 40), (10001, 200), (10001, 201),
                (20000, 401))


def _draw_plan(seed, geometric_ps=GEOMETRIC_PS, length=300):
    """A random interleaving of the three draw kinds."""
    plan_rng = random.Random(seed)
    plan = []
    for _ in range(length):
        kind = plan_rng.choice(("integers", "geometric", "choice"))
        if kind == "integers":
            plan.append((kind, plan_rng.choice(INTEGER_HIS)))
        elif kind == "geometric":
            plan.append((kind, plan_rng.choice(geometric_ps)))
        else:
            plan.append((kind, plan_rng.choice(CHOICE_SIZES)))
    return plan


def _numpy_draw(rng, kind, arg):
    if kind == "integers":
        return int(rng.integers(0, arg))
    if kind == "geometric":
        return int(rng.geometric(arg))
    pop, k = arg
    return rng.choice(pop, size=k, replace=False).tolist()


def _replay_draw(replay, shared, kind, arg):
    """``replay``'s draw, or for a geometric below GEOMETRIC_SEARCH_MIN_P
    numpy's own on ``shared``, a Generator on the replay's bit generator."""
    if kind == "integers":
        return replay.integers(arg)
    if kind == "geometric":
        if arg < GEOMETRIC_SEARCH_MIN_P:
            return int(shared.geometric(arg))
        return bisect_right(geometric_thresholds(arg), replay.raw()) + 1
    return replay.choice(*arg)


def _cdf_search(p, word):
    """numpy's geometric CDF search on the double of one raw word, in loop form."""
    u = (word >> 11) * (1.0 / 9007199254740992.0)
    x = 1
    total = prod = p
    q = 1.0 - p
    while u > total:
        prod *= q
        total += prod
        x += 1
    return x


@pytest.mark.parametrize("read_ahead", [1, RAW_BLOCK], ids=["one-word", "block"])
def test_replay_matches_generator_over_interleavings(read_ahead):
    # Only a one-word read-ahead lets numpy's own draws share the bit generator.
    geometric_ps = GEOMETRIC_PS + (EXPONENTIAL_PS if read_ahead == 1 else ())
    for seed in range(60):
        rng = make_rng(seed)
        bit_generator = np.random.Philox(seed)
        replay = PhiloxReplay(bit_generator, read_ahead)
        shared = np.random.Generator(bit_generator)
        for step, (kind, arg) in enumerate(_draw_plan(seed, geometric_ps)):
            assert (_replay_draw(replay, shared, kind, arg)
                    == _numpy_draw(rng, kind, arg)), (seed, step)


def test_geometric_thresholds_match_the_cdf_search_at_every_boundary():
    # For these p the search ends on every word: total reaches 1.0, or
    # levels off at or above the largest double a word gives, 1 - 2**-53.
    for p in GEOMETRIC_PS + (0.5, 0.99):
        table = geometric_thresholds(p)
        assert table == sorted(table)
        words = {0, 2 ** 64 - 1}
        for th in table[:8]:
            words.update((th - 1, th))
        for word in sorted(words):
            assert bisect_right(table, word) + 1 == _cdf_search(p, word), (p, word)


def test_replay_takes_over_a_pending_half_word():
    # An odd number of 32-bit draws leaves the high half of a word buffered.
    rng = make_rng(5)
    expected = make_rng(5)
    for _ in range(3):
        rng.integers(0, 10)
        expected.integers(0, 10)
    expected.random(4)
    rng.random(4)
    replay = PhiloxReplay(rng.bit_generator)
    assert ([replay.integers(1000) for _ in range(9)]
            == [int(expected.integers(0, 1000)) for _ in range(9)])


def test_replay_integers_one_takes_no_draw():
    rng = make_rng(7)
    replay = PhiloxReplay(np.random.Philox(7))
    assert [replay.integers(1) for _ in range(5)] == [0] * 5
    assert replay.integers(999) == int(rng.integers(0, 999))


def test_list_shuffle_matches_array_shuffle():
    # model.World shuffles neighbor lists on numpy's untyped list path; the
    # golden digests were made with the ndarray path.  Both must take the
    # same draws and make the same swaps.
    for seed in range(20):
        for length in (0, 1, 2, 3, 10, 232, 1000):
            array_rng, list_rng = make_rng(seed), make_rng(seed)
            array = np.arange(length, dtype=np.int64)
            array_rng.shuffle(array)
            items = list(range(length))
            list_rng.shuffle(items)
            assert items == array.tolist(), (
                f"numpy {np.__version__}: list shuffle differs from array shuffle "
                f"(seed {seed}, length {length})")
            assert list_rng.integers(0, 2 ** 32) == array_rng.integers(0, 2 ** 32), (
                f"numpy {np.__version__}: list shuffle leaves the stream elsewhere "
                f"(seed {seed}, length {length})")
