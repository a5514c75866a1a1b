"""PhiloxReplay: numpy Generator draws replayed from raw Philox output, exactly."""

import random

import numpy as np

from womlab.rng import GEOMETRIC_SEARCH_MIN_P, PhiloxReplay, make_rng

# 2**31 + 1 rejects about half of its first draws.
INTEGER_HIS = (1, 2, 7, 999, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 5, 2 ** 32)
GEOMETRIC_PS = (GEOMETRIC_SEARCH_MIN_P, 0.37, 0.63, 0.9, 1.0)
# (pop, k): Floyd plus shuffle, and numpy's tail shuffle for pop > 10000, k > pop // 50.
CHOICE_SIZES = ((2, 1), (3, 2), (17, 5), (17, 16), (1000, 40), (10001, 200), (10001, 201),
                (20000, 401))


def _draw_plan(seed, length=300):
    """A random interleaving of the three draw kinds."""
    plan_rng = random.Random(seed)
    plan = []
    for _ in range(length):
        kind = plan_rng.choice(("integers", "geometric", "choice"))
        if kind == "integers":
            plan.append((kind, plan_rng.choice(INTEGER_HIS)))
        elif kind == "geometric":
            plan.append((kind, plan_rng.choice(GEOMETRIC_PS)))
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


def _replay_draw(replay, kind, arg):
    if kind == "integers":
        return replay.integers(arg)
    if kind == "geometric":
        return replay.geometric(arg)
    return replay.choice(*arg)


def test_replay_matches_generator_over_interleavings():
    for seed in range(60):
        rng = make_rng(seed)
        replay = PhiloxReplay(np.random.Philox(seed))
        for step, (kind, arg) in enumerate(_draw_plan(seed)):
            assert _replay_draw(replay, kind, arg) == _numpy_draw(rng, kind, arg), (seed, step)


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
