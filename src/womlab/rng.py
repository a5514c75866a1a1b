"""Deterministic random streams.

Every stochastic component in this package draws from a counter-based
Philox generator named by a 64-bit seed, so the same seed always yields
the same stream on every platform.  Consumers document the order in
which they take draws from their stream; nothing else shares it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

SEED_MASK = (1 << 64) - 1

_U32 = 0xFFFFFFFF
RAW_BLOCK = 512  # PhiloxReplay's default read-ahead, in raw words
_DOUBLE_SCALE = 9007199254740992.0  # 2**53: a double draw is (word >> 11) / 2**53

# numpy's geometric() searches the CDF from p = 1/3 up and samples an
# exponential (ziggurat) below it; ``geometric_thresholds`` replays the search only.
GEOMETRIC_SEARCH_MIN_P = 1.0 / 3.0

# Seed type: any integer in [0, 2**64).  Kept as a plain int throughout;
# this alias only marks intent in signatures.
RngSeed = int


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    seed = int(seed)
    if not 0 <= seed <= SEED_MASK:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def make_rng(seed: RngSeed) -> np.random.Generator:
    """Create the deterministic stream named by ``seed``."""
    return np.random.Generator(np.random.Philox(check_seed(seed)))


class PhiloxReplay:
    """numpy ``Generator`` draws, replayed in Python from raw Philox output.

    Takes over a Philox bit generator from the current point of its
    stream and returns exactly what ``np.random.Generator`` (numpy 2.x)
    would return for the same calls in the same order, at a fraction of
    numpy's per-call cost for scalar draws.  Raw 64-bit words are pulled
    ``read_ahead`` at a time, so only with a one-word read-ahead may other
    whole-word draws (numpy's ``geometric``, say) share the bit generator;
    words pulled past a discarded stream's last draw are unobservable.

    As in numpy, a 32-bit draw takes the low half of a fresh word and
    buffers the high half for the next 32-bit draw; a double takes a
    fresh word and leaves that buffer as it is.

    ``raw()`` returns the next raw 64-bit word as an int.  A double draw
    takes one such word, so ``Generator.geometric(p)`` for
    ``p >= GEOMETRIC_SEARCH_MIN_P`` is
    ``bisect_right(geometric_thresholds(p), replay.raw()) + 1``: numpy's
    CDF search on that word, looked up in a table built once per ``p``.
    """

    __slots__ = ("raw", "_half")

    def __init__(self, bit_generator: np.random.Philox, read_ahead: int = RAW_BLOCK):
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        blocks = iter(lambda: bit_generator.random_raw(read_ahead).tolist(), None)
        self.raw = chain.from_iterable(blocks).__next__

    def _next_uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self.raw()
        self._half = word >> 32
        return word & _U32

    def integers(self, hi: int) -> int:
        """``Generator.integers(0, hi)`` for ``1 <= hi <= 2**32``.

        Lemire's multiply-shift on one 32-bit draw, redrawn while the low
        product word falls below ``2**32 % hi``; ``hi == 1`` takes no draw.
        """
        if hi == 1:
            return 0
        half = self._half
        if half is None:
            word = self.raw()
            self._half = word >> 32
            m = (word & _U32) * hi
        else:
            self._half = None
            m = half * hi
        if m & _U32 < hi:
            threshold = (0x100000000 - hi) % hi
            while m & _U32 < threshold:
                m = self._next_uint32() * hi
        return m >> 32

    def choice(self, pop: int, k: int) -> list[int]:
        """``Generator.choice(pop, size=k, replace=False).tolist()`` for ``k <= pop``.

        Floyd's algorithm (the ``j``-th pick is uniform on ``[0, j]``, or
        ``j`` itself when already taken) followed by a Fisher-Yates shuffle
        of the picks; for ``pop > 10000`` and ``k > pop // 50``, numpy
        instead shuffles the tail of ``range(pop)`` and keeps it.
        """
        integers = self.integers
        if pop > 10000 and k > pop // 50:
            idx = list(range(pop))
            for i in range(pop - 1, max(pop - k, 1) - 1, -1):
                j = integers(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            return idx[pop - k:]
        picks = []
        taken = set()
        for j in range(pop - k, pop):
            pick = integers(j + 1)
            if pick in taken:
                pick = j
            taken.add(pick)
            picks.append(pick)
        for i in range(k - 1, 0, -1):
            j = integers(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


def geometric_thresholds(p: float) -> list[int]:
    """Raw-word thresholds of numpy's geometric CDF search for success ``p``.

    numpy's ``Generator.geometric(p)`` for ``p >= GEOMETRIC_SEARCH_MIN_P``
    draws one double ``u = (word >> 11) * 2**-53`` and returns the first
    ``x`` with ``u <= total_x``, where ``total_1 = p`` and ``total_x``
    adds ``p * (1 - p)**(x - 1)`` by the float recurrence
    ``prod *= q; total += prod``.  This table holds, in that recurrence's
    operation order, ``th_x = (floor(total_x * 2**53) + 1) << 11``, the
    least word with ``u > total_x``; so ``bisect_right(table, word)`` is
    the draw minus one, exactly.  The table ends where ``total`` reaches
    1.0 (no word lies beyond) or stops changing.  In the second case, a
    word at or past the last threshold is one on which numpy's search
    never ends; the table gives it the count ``len(table)``.
    """
    thresholds = []
    total = prod = p
    q = 1.0 - p
    while total < 1.0:
        thresholds.append((int(total * _DOUBLE_SCALE) + 1) << 11)
        prod *= q
        last, total = total, total + prod
        if total == last:
            break
    return thresholds


def round_half_up(x: float) -> int:
    """Round a non-negative real half-up (0.5 -> 1), used for proportion counts."""
    return int(np.floor(x + 0.5))
