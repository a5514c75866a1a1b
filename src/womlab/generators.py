"""Seeded random-network generators.

Three families, each tuned so that its default parameters produce
1000-node networks with a density near 0.01, a short average path
length and a non-trivial clustering rate:

* ``generate_ws``  -- ring lattice with random endpoint rewiring
  (small-world networks: high clustering, short paths).
* ``generate_ff``  -- recursive-burning growth with geometric burn
  counts (skewed degrees, core-periphery structure, long diameter).
* ``generate_sii`` -- interconnected islands: dense random blocks
  pairwise joined by a fixed number of random links (communities).

All generators are pure functions of ``(params, seed)``: the same pair
always returns a bit-identical graph.  Each documents the order in
which it consumes draws from its stream.  Their scalar draws are those
of ``np.random.Generator``, replayed from raw Philox output by
:class:`~womlab.rng.PhiloxReplay`, which costs a fraction of numpy's
per-call overhead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .graph import Graph, GraphMetrics, build_graph, compute_metrics, is_connected
from .rng import (GEOMETRIC_SEARCH_MIN_P, RAW_BLOCK, PhiloxReplay, RngSeed,
                  geometric_thresholds, make_rng)

# Resampling cap when a rewired endpoint keeps colliding with existing
# edges; past it the original edge is kept unchanged.
_WS_REWIRE_ATTEMPTS = 100


class GenerationError(RuntimeError):
    """No connected network could be generated within the retry budget."""


@dataclass(frozen=True)
class WsParams:
    """Ring-lattice rewiring parameters.

    Each node starts linked to its ``nei`` nearest neighbors on each
    side; every link endpoint is then rewired with probability
    ``p_rewire``.
    """

    n: int = 1000
    nei: int = 5
    p_rewire: float = 0.055

    def __post_init__(self):
        if self.nei < 1 or self.n <= 2 * self.nei:
            raise ValueError("require n > 2*nei >= 2")
        if not 0.0 <= self.p_rewire <= 1.0:
            raise ValueError("p_rewire must be in [0, 1]")


@dataclass(frozen=True)
class FfParams:
    """Recursive-burning growth parameters.

    Growth is directed internally (every link points from the arriving
    node to an older one); burn counts are geometric with success
    parameter ``1 - fw_prob`` against a node's out-neighbors and
    ``1 - fw_prob * bw_factor`` against its in-neighbors.  The emitted
    graph is undirected.
    """

    n: int = 1000
    fw_prob: float = 0.37
    bw_factor: float = 0.9
    ambs: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.fw_prob < 1.0:
            raise ValueError("fw_prob must be in [0, 1)")
        if not self.bw_factor >= 0.0:  # positive form: NaN fails it
            raise ValueError("bw_factor must be >= 0")
        if not self.fw_prob * self.bw_factor <= 1.0:  # 0 * inf is NaN
            raise ValueError("fw_prob * bw_factor must be <= 1")
        if self.ambs < 1:
            raise ValueError("ambs must be >= 1")


@dataclass(frozen=True)
class SiiParams:
    """Interconnected-islands parameters.

    ``n_islands`` random blocks of ``island_size`` nodes wired
    internally with probability ``p_in``; every pair of islands is then
    joined by exactly ``n_inter`` links between uniformly chosen
    endpoints.
    """

    n_islands: int = 24
    island_size: int = 42
    p_in: float = 0.235
    n_inter: int = 1

    def __post_init__(self):
        if self.n_islands < 1 or self.island_size < 1 or self.n_inter < 1:
            raise ValueError("n_islands, island_size and n_inter must be positive")
        if not 0.0 <= self.p_in <= 1.0:
            raise ValueError("p_in must be in [0, 1]")
        if self.n_inter > self.island_size ** 2:
            raise ValueError("n_inter cannot exceed island_size**2")


def generate_ws(params: WsParams, seed: RngSeed) -> Graph:
    """Rewired ring lattice with exactly ``n * nei`` edges.

    Draw order: one block of ``2 * n * nei`` rewire coins (two per
    lattice edge, clockwise endpoint first), then replacement targets
    as needed.  Lattice edges are visited in the fixed order
    ``(i, i+j)`` for ``i = 0..n-1``, ``j = 1..nei``.  A rewire trial
    moves one endpoint to a uniform node, resampling on self-loops and
    existing edges up to the attempt cap, after which the edge is kept.
    Rewiring relocates edges but never adds or removes them.
    """
    n, nei, p = params.n, params.nei, params.p_rewire
    rng = make_rng(seed)
    m = n * nei
    u_arr = np.repeat(np.arange(n, dtype=np.int64), nei)
    v_arr = (u_arr + np.tile(np.arange(1, nei + 1, dtype=np.int64), n)) % n
    u_list = u_arr.tolist()
    v_list = v_arr.tolist()
    offsets = np.concatenate([np.arange(1, nei + 1), -np.arange(1, nei + 1)])
    adj = [set(row) for row in ((np.arange(n)[:, None] + offsets) % n).tolist()]

    coins = rng.random(2 * m)
    integers = PhiloxReplay(rng.bit_generator).integers
    # Coin 2k rewires the clockwise endpoint of edge k, coin 2k+1 its
    # anchor; only the coins below p are visited, in coin order.
    for f in np.flatnonzero(coins < p).tolist():
        k, trial = f >> 1, f & 1
        if trial == 0:
            anchor, moved = u_list[k], v_list[k]
        else:
            anchor, moved = v_list[k], u_list[k]
        anchor_adj = adj[anchor]
        for _ in range(_WS_REWIRE_ATTEMPTS):
            t = integers(n)
            if t == anchor or t in anchor_adj:
                continue
            anchor_adj.remove(moved)
            adj[moved].remove(anchor)
            anchor_adj.add(t)
            adj[t].add(anchor)
            if trial == 0:
                v_list[k] = t
            else:
                u_list[k] = t
            break
    return build_graph(n, np.array([u_list, v_list], dtype=np.int64).T)


def generate_ff(params: FfParams, seed: RngSeed) -> Graph:
    """Grow a connected network node by node with recursive burning.

    Node 0 is the bare seed.  Every later node ``a`` links to ``ambs``
    distinct uniform ambassadors among the nodes already present, then
    burns outward from the newly linked nodes: for each queued node
    ``b``, draw a forward count against ``fw_prob`` and a backward
    count against ``fw_prob * bw_factor``, link ``a`` to that many
    uniformly chosen not-yet-visited out- and in-neighbors of ``b``
    (capped by availability), and queue the nodes just linked.  Visit
    marks are per-arrival, so burning always terminates and never links
    the same pair twice.  The returned graph keeps only the undirected
    edge set; connectivity holds by construction.

    Draw order per new node: ambassador picks (resampled until
    distinct), then per dequeued node the forward count, the backward
    count, and the candidate index picks for whichever counts are
    positive, out-neighbors first.  Picks take
    ``Generator.choice(len, size=want, replace=False)``; a single pick
    takes ``Generator.integers(0, len)``, the same draw and index.

    The draws are those of ``np.random.Generator`` on the seed's Philox
    stream, replayed by one :class:`PhiloxReplay`.  A count is
    ``bisect_right(table, word())`` for the pair that ``counts`` gives
    its burn probability: no draw (0 against ``()``) at 0; every
    in-neighbor (``n`` against ``range(n)``) at 1 or more; else one raw
    word against :func:`geometric_thresholds` of the success
    probability, numpy's CDF search on that word.  Below
    ``GEOMETRIC_SEARCH_MIN_P`` (``fw_prob > 2/3``, or
    ``2/3 < fw_prob * bw_factor < 1``) numpy samples the count from an
    exponential: the word is then numpy's own geometric draw against
    ``range(2, n + 2)`` (the draw minus one, capped at ``n``, more than
    any node has neighbors), and the replay reads one word at a time,
    never ahead of numpy on the shared bit generator.
    """
    n, p, ambs = params.n, params.fw_prob, params.ambs
    pb = p * params.bw_factor
    rng = make_rng(seed)
    numpy_geometric = any(bp < 1.0 and 1.0 - bp < GEOMETRIC_SEARCH_MIN_P for bp in (p, pb))
    replay = PhiloxReplay(rng.bit_generator, 1 if numpy_geometric else RAW_BLOCK)
    integers, choice = replay.integers, replay.choice

    def counts(burn_prob: float) -> tuple[Sequence[int], Callable[[], int]]:
        if burn_prob <= 0.0:
            return (), repeat(0).__next__
        if burn_prob >= 1.0:
            return range(n), repeat(n).__next__
        q = 1.0 - burn_prob
        if q >= GEOMETRIC_SEARCH_MIN_P:
            return geometric_thresholds(q), replay.raw
        return range(2, n + 2), partial(rng.geometric, q)

    fwd_table, fwd_word = counts(p)
    bwd_table, bwd_word = counts(pb)
    src: list[int] = []
    dst: list[int] = []
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    visited = [-1] * n  # stamp of the arrival that burned the node

    def burn(candidates: list[int], want: int, a: int, queue: list[int]) -> None:
        """Link arrival ``a`` to ``want`` unvisited candidates (all if fewer)."""
        fresh = []  # a loop: a comprehension is one more call on Python < 3.12
        for w in candidates:
            if visited[w] != a:
                fresh.append(w)
        if want >= len(fresh):
            chosen = fresh
        elif want == 1:
            chosen = [fresh[integers(len(fresh))]]
        else:
            chosen = [fresh[i] for i in choice(len(fresh), want)]
        for w in chosen:
            visited[w] = a
        queue.extend(chosen)

    for a in range(1, n):
        visited[a] = a
        k = min(ambs, a)
        queue: list[int] = []
        while len(queue) < k:
            b = integers(a)
            if visited[b] == a:
                continue
            visited[b] = a
            queue.append(b)
        for b in queue:  # grows while burning: breadth-first order
            n_fwd = bisect_right(fwd_table, fwd_word())
            n_bwd = bisect_right(bwd_table, bwd_word())
            if n_fwd:
                burn(out_adj[b], n_fwd, a, queue)
            if n_bwd:
                burn(in_adj[b], n_bwd, a, queue)
        out_adj[a] = queue
        for w in queue:
            in_adj[w].append(a)
        src.extend([a] * len(queue))
        dst.extend(queue)
    return build_graph(n, np.array([src, dst], dtype=np.int64).T)


def generate_sii(params: SiiParams, seed: RngSeed) -> Graph:
    """Erdos-Renyi islands pairwise joined by ``n_inter`` distinct links.

    Draw order: one block of ``C(island_size, 2)`` coins per island
    (pairs in row-major order, islands ascending), then for every
    island pair ``(g, h)`` with ``g < h`` in lexicographic order the
    endpoint picks for each inter-island link, resampled while the
    picked pair already exists.
    """
    k, size, p_in, n_inter = (params.n_islands, params.island_size,
                              params.p_in, params.n_inter)
    rng = make_rng(seed)
    iu, iv = np.triu_indices(size, k=1)
    edges_u: list[np.ndarray] = []
    edges_v: list[np.ndarray] = []
    for g in range(k):
        base = g * size
        hit = rng.random(len(iu)) < p_in
        edges_u.append(iu[hit] + base)
        edges_v.append(iv[hit] + base)
    integers = PhiloxReplay(rng.bit_generator).integers
    inter_u: list[int] = []
    inter_v: list[int] = []
    for g in range(k):
        for h in range(g + 1, k):
            seen: set[tuple[int, int]] = set()
            while len(seen) < n_inter:
                a = g * size + integers(size)
                b = h * size + integers(size)
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                inter_u.append(a)
                inter_v.append(b)
    u = np.concatenate(edges_u + [np.asarray(inter_u, dtype=np.int64)])
    v = np.concatenate(edges_v + [np.asarray(inter_v, dtype=np.int64)])
    return build_graph(k * size, np.stack([u, v], axis=1))


_GENERATORS = {
    "ws": (WsParams, generate_ws),
    "ff": (FfParams, generate_ff),
    "sii": (SiiParams, generate_sii),
}

MODEL_IDS = tuple(_GENERATORS)


def _generator(model: str):
    """The ``(params class, generator)`` pair of a model id."""
    try:
        return _GENERATORS[model]
    except KeyError:
        raise ValueError(f"unknown network model {model!r}; expected one of {MODEL_IDS}")


def default_params(model: str):
    """Default parameter set for a model id."""
    return _generator(model)[0]()


def generate(model: str, params, seed: RngSeed) -> Graph:
    """Dispatch to the named generator, checking the params type."""
    cls, fn = _generator(model)
    if not isinstance(params, cls):
        raise TypeError(f"model {model!r} expects {cls.__name__}, got {type(params).__name__}")
    return fn(params, seed)


def generate_validated(model: str, params, seed: RngSeed,
                       max_retries: int = 10) -> tuple[Graph, GraphMetrics, int]:
    """Generate until connected, drawing each retry from its own seed.

    Attempt 0 uses ``seed`` itself; attempt ``i >= 1`` uses the first
    64-bit word of ``np.random.SeedSequence([seed, i])``, so a retry
    never rebuilds the network of a neighbouring seed (a sweep names its
    runs by consecutive seeds).  Returns ``(graph, metrics, attempts)``.
    Connectivity is enforced by retrying with fresh seeds, never by
    stitching components, so the statistics of the returned graph are
    untouched.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    for attempt in range(max_retries):
        attempt_seed = seed if attempt == 0 else int(
            np.random.SeedSequence([seed, attempt]).generate_state(1, np.uint64)[0])
        g = generate(model, params, attempt_seed)
        if is_connected(g):
            return g, compute_metrics(g), attempt + 1
    raise GenerationError(
        f"{model}: no connected network in {max_retries} attempts from seed {seed}")
