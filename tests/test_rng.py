"""PhiloxReplay: numpy Generator draws replayed from raw Philox output, exactly."""

import random
from bisect import bisect_right

import numpy as np
import pytest

from womlab.generators import WsParams, generate_ws
from womlab.model import SimConfig
from womlab.rng import (GEOMETRIC_SEARCH_MIN_P, RAW_BLOCK, PhiloxReplay, check_seed,
                        check_share, geometric_thresholds, make_rng)
from womlab.sweep import SweepGrid

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


def test_non_integral_seeds_are_rejected_not_truncated():
    # A float seed is an error, never the run of the seed it truncates to.
    with pytest.raises(ValueError, match="seed must be an integer, got 1.9"):
        SimConfig(k=0.1, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.0, seed=1.9)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        SweepGrid(network_model="ws", base_seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
        generate_ws(WsParams(n=20, nei=2), 2.7)


def test_numpy_integer_seeds_are_plain_ints():
    assert type(check_seed(np.uint64(5))) is int and check_seed(np.uint64(5)) == 5
    grid = SweepGrid(network_model="ws", base_seed=np.uint64(2 ** 64 - 1))
    assert type(grid.base_seed) is int and grid.base_seed == 2 ** 64 - 1
    with pytest.raises(ValueError, match="64-bit unsigned"):
        check_seed(-1)


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), float("inf")])
def test_share_check_rejects_values_outside_the_unit_interval(value):
    with pytest.raises(ValueError, match=r"^p_in must be in \[0, 1\], got "):
        check_share("p_in", value)
    assert check_share("p_in", 0.0) == 0.0 and check_share("p_in", 1) == 1
