"""Word-of-mouth diffusion with information seeking.

Agents hold two kinds of knowledge about an innovation: *awareness*
(knowing it exists) and *expertise* (the know-how needed to understand
it).  Three fixed boolean traits drive behaviour:

* curious agents start actively seeking expertise when they first
  become aware;
* enthusiastic agents promote proactively for a while when they gain
  expertise;
* supporters promote when awareness reaches them while they already
  hold expertise.

An advertisement campaign seeds awareness during the first rounds.
Seekers query their neighbors in random order, spreading awareness as
they go and stopping as soon as expertise reaches them; a queried
non-expert remembers the requester and pays the expertise back the
moment it arrives, so a chain of open requests is fulfilled in cascade
once any of its members reaches an expert.  Promotion addresses one
fresh random neighbor per round until the promoter's budget or
neighborhood runs out, handing over awareness plus expertise; a
neighbor that reacts by seeking gathers the expertise through its own
queries instead.  The run ends at quiescence (no seeker has a move
left, nobody promotes, advertising is over) or at the round cap.

State is kept in parallel per-agent lists inside :class:`World`; an
agent acts on its turn only while it is in an *episode* (seeking or
proactive), whose neighbor list ``World.episode`` holds and which is
``None`` otherwise.  A :class:`World` is single-threaded, but
independent worlds share nothing and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .rng import RngSeed, check_seed, make_rng, round_half_up

# Awareness states.
UNAWARE, SEEKING, AWARE = 0, 1, 2
# Expertise states.
IGNORANT, PROACTIVE, KNOWLEDGEABLE = 0, 1, 2

AWARENESS_NAMES = ("unaware", "seeking", "aware")
EXPERTISE_NAMES = ("ignorant", "proactive", "knowledgeable")

# (awareness, expertise) pairs in the order used by time-series rows.
STATE_COMBOS = tuple((aw, ex) for aw in (UNAWARE, SEEKING, AWARE)
                     for ex in (IGNORANT, PROACTIVE, KNOWLEDGEABLE))


@dataclass(frozen=True)
class SimConfig:
    """One simulation's parameters.

    ``k`` is the share of the population seeded with expertise;
    ``p_curious`` / ``p_enthusiastic`` / ``p_supporter`` the trait
    shares.  The advertisement campaign reaches ``ad_share`` of the
    population in each of the first ``ad_rounds`` rounds.  Promoters
    stay active for ``t_promote`` pushes.  With ``seeker_gives_up`` a
    seeker that exhausted its neighbors settles for plain awareness,
    which guarantees quiescence on networks lacking expertise.
    """

    k: float
    p_curious: float
    p_enthusiastic: float
    p_supporter: float
    ad_rounds: int = 8
    ad_share: float = 0.01
    t_promote: int = 15
    seeker_gives_up: bool = True
    max_rounds: int = 1000
    seed: RngSeed = 0

    def __post_init__(self):
        for name in ("k", "p_curious", "p_enthusiastic", "p_supporter", "ad_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.ad_rounds < 0 or self.t_promote < 0 or self.max_rounds < 0:
            raise ValueError("ad_rounds, t_promote and max_rounds must be >= 0")
        check_seed(self.seed)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one run.

    ``time_series`` holds one row per round (the initial state first);
    each row counts agents in the nine (awareness, expertise)
    combinations in :data:`STATE_COMBOS` order.
    """

    final_aware_fraction: float
    final_both_fraction: float
    rounds_to_quiescence: int
    hit_max_rounds: bool
    time_series: list[tuple[int, ...]] = field(repr=False)


class World:
    """Mutable population state over a fixed interaction network.

    ``episode[i]`` is ``None`` exactly when agent ``i`` is neither
    SEEKING nor PROACTIVE; a seeker is always ignorant and a promoter
    always holds expertise, so no agent has both.  A seeker's list holds
    the neighbors still to query, a promoter's the at most ``t_promote``
    neighbors still to push to, both in pop order.
    """

    __slots__ = ("graph", "cfg", "rng", "n", "indptr", "indices",
                 "awareness", "expertise", "curious", "enthusiastic", "supporter",
                 "episode", "pending", "round", "counts", "ad_recipients")

    def __init__(self, graph: Graph, cfg: SimConfig):
        self.graph = graph
        self.cfg = cfg
        self.rng = make_rng(cfg.seed)
        self.n = graph.node_count
        indptr, indices = graph.csr_arrays()
        self.indptr = indptr.tolist()
        self.indices = indices.tolist()
        n = self.n
        self.awareness = [UNAWARE] * n
        self.expertise = [IGNORANT] * n
        self.curious = [False] * n
        self.enthusiastic = [False] * n
        self.supporter = [False] * n
        self.episode: list[list[int] | None] = [None] * n
        self.pending: list[list[int]] = [[] for _ in range(n)]
        self.round = 0
        # counts[aw * 3 + ex], kept in sync with every transition.
        self.counts = [0] * 9
        self.counts[UNAWARE * 3 + IGNORANT] = n
        self.ad_recipients: set[int] = set()

    # -- bookkeeping -------------------------------------------------------

    def _move(self, i: int, new_aw: int, new_ex: int) -> None:
        counts = self.counts
        counts[self.awareness[i] * 3 + self.expertise[i]] -= 1
        counts[new_aw * 3 + new_ex] += 1
        self.awareness[i] = new_aw
        self.expertise[i] = new_ex

    def aware_count(self) -> int:
        return self.n - sum(self.counts[UNAWARE * 3:UNAWARE * 3 + 3])

    def both_count(self) -> int:
        """Agents holding awareness and expertise at once."""
        c = self.counts
        return (c[SEEKING * 3 + PROACTIVE] + c[SEEKING * 3 + KNOWLEDGEABLE]
                + c[AWARE * 3 + PROACTIVE] + c[AWARE * 3 + KNOWLEDGEABLE])

    def is_quiescent(self) -> bool:
        """No promoter, no seeker with a move left, advertising over."""
        counts = self.counts
        if self.round < self.cfg.ad_rounds or any(counts[PROACTIVE::3]):
            return False
        if self.cfg.seeker_gives_up:
            return not counts[SEEKING * 3 + IGNORANT]  # a seeker is always ignorant
        return not any(self.episode)  # only seekers are left in an episode

    def _shuffled_neighbors(self, i: int) -> list[int]:
        # numpy shuffles a list with the same draws and swaps as an array.
        neighbors = self.indices[self.indptr[i]:self.indptr[i + 1]]
        self.rng.shuffle(neighbors)
        return neighbors

    def _start_promoting(self, i: int) -> None:
        # Shuffle every neighbor (the draws), keep the t_promote popped first.
        neighbors = self._shuffled_neighbors(i)
        self.episode[i] = neighbors[max(len(neighbors) - self.cfg.t_promote, 0):]


def init_population(graph: Graph, cfg: SimConfig) -> World:
    """Create a world: everyone unaware, expertise and traits seeded.

    Exactly ``round(k * n)`` agents (uniform, without replacement) start
    knowledgeable; each trait is assigned to exactly ``round(p * n)``
    agents by an independent uniform sample.  Draw order: expertise
    sample, curious, enthusiastic, supporter.
    """
    world = World(graph, cfg)
    n = world.n
    if n == 0:
        return world
    expert_count = round_half_up(cfg.k * n)
    if expert_count:
        for i in world.rng.choice(n, size=expert_count, replace=False).tolist():
            world._move(i, UNAWARE, KNOWLEDGEABLE)
    for flags, share in ((world.curious, cfg.p_curious),
                         (world.enthusiastic, cfg.p_enthusiastic),
                         (world.supporter, cfg.p_supporter)):
        count = round_half_up(share * n)
        if count:
            for i in world.rng.choice(n, size=count, replace=False).tolist():
                flags[i] = True
    return world


def _deliver_awareness(world: World, agent_id: int) -> None:
    """Make an agent aware of the innovation (no-op if it already is).

    A supporter holding expertise starts promoting; any other expertise
    holder just becomes aware.  An ignorant curious agent starts
    seeking, with its neighbor list shuffled into this episode's query
    order; an ignorant non-curious agent becomes passively aware.
    """
    if world.awareness[agent_id] != UNAWARE:
        return
    expertise = world.expertise[agent_id]
    if expertise != IGNORANT:
        if world.supporter[agent_id] and expertise != PROACTIVE:
            world._move(agent_id, AWARE, PROACTIVE)
            world._start_promoting(agent_id)
        else:
            world._move(agent_id, AWARE, expertise)
    elif world.curious[agent_id]:
        world._move(agent_id, SEEKING, IGNORANT)
        world.episode[agent_id] = world._shuffled_neighbors(agent_id)
    else:
        world._move(agent_id, AWARE, IGNORANT)


def _deliver_expertise(world: World, agent_id: int) -> None:
    """Hand expertise to an agent and back-propagate along open requests.

    No-op on agents already holding expertise.  Enthusiastic recipients
    turn proactive, others knowledgeable; a seeking recipient stops
    seeking.  Every requester waiting on the recipient then receives
    expertise in turn, so a whole gathering chain resolves within the
    call.  (Iterative, order over the chain does not affect any agent's
    final state.)
    """
    stack = [agent_id]
    while stack:
        i = stack.pop()
        if world.expertise[i] != IGNORANT:
            continue
        aw = world.awareness[i]
        if aw == SEEKING:
            # End the seeking episode before a promotion episode may start.
            world.episode[i] = None
            aw = AWARE
        if world.enthusiastic[i]:
            new_ex = PROACTIVE
            world._start_promoting(i)
        else:
            new_ex = KNOWLEDGEABLE
        world._move(i, aw, new_ex)
        requesters = world.pending[i]
        if requesters:
            world.pending[i] = []
            stack.extend(requesters)


def step(world: World) -> None:
    """Advance one synchronous round.

    First the advertisement (while the campaign lasts) reaches a
    uniform sample of ``round(ad_share * n)`` still-unaware agents (or
    all of them, if fewer remain).  Then every agent acts in
    a fresh uniform order, against the state as it stands when its turn
    comes.  A seeker works through its remaining query list: each
    queried neighbor becomes aware and either hands back expertise (if
    it holds any) or records the seeker as a pending requester; the
    burst stops the moment expertise reaches the seeker, and a seeker
    that exhausts its list without success gives up into plain
    awareness (unless configured to idle instead).  A promoter
    addresses the next neighbor of its shuffled promotion episode (one
    per round, each neighbor at most once): the neighbor becomes aware
    and, unless it is busy seeking, receives the expertise on the spot
    (a seeking neighbor gathers it through its own queries instead);
    the promoter retires to knowledgeable when its episode, cut to its
    push budget, runs empty.

    Draw order: the advertisement's ``choice`` over the ascending
    unaware pool (none when the whole pool is reached), then the
    round's ``permutation`` (drawn even when nobody can act), then one
    neighbor shuffle per started seeking or promotion episode, in
    activation order, on numpy's list path of ``Generator.shuffle``.
    """
    cfg = world.cfg
    rng = world.rng
    world.round += 1
    if world.round <= cfg.ad_rounds:
        reach = round_half_up(cfg.ad_share * world.n)
        if reach:
            pool = np.flatnonzero(np.frombuffer(bytes(world.awareness), np.uint8) == UNAWARE)
            if reach < len(pool):
                pool = pool[rng.choice(len(pool), size=reach, replace=False)]
            targets = pool.tolist()
            # Distinct unaware targets: none can make another aware.
            world.ad_recipients.update(targets)
            for t in targets:
                _deliver_awareness(world, t)
    order = rng.permutation(world.n)
    counts = world.counts
    if not (counts[SEEKING * 3 + IGNORANT] or any(counts[PROACTIVE::3])):
        return  # nobody can act, so nobody can be activated
    awareness = world.awareness
    expertise = world.expertise
    episodes = world.episode
    pending = world.pending
    seeker_gives_up = cfg.seeker_gives_up
    for i in order.tolist():
        episode = episodes[i]
        if episode is None:
            continue
        if awareness[i] == SEEKING:
            while episode and expertise[i] == IGNORANT:
                target = episode.pop()
                if awareness[target] == UNAWARE:
                    _deliver_awareness(world, target)
                if expertise[target] != IGNORANT:
                    _deliver_expertise(world, i)
                else:
                    pending[target].append(i)
            # Still seeking here means the list ran out without expertise.
            if awareness[i] == SEEKING and seeker_gives_up:
                episodes[i] = None
                world._move(i, AWARE, IGNORANT)
        else:  # proactive
            if episode:
                target = episode.pop()
                if awareness[target] == UNAWARE:
                    _deliver_awareness(world, target)
                # A target that took up seeking evaluates on its own
                # terms; it will query its way back to expertise (this
                # promoter is in its episode).  Everyone else receives
                # the know-how on the spot.
                if awareness[target] != SEEKING and expertise[target] == IGNORANT:
                    _deliver_expertise(world, target)
            if not episode:
                episodes[i] = None
                world._move(i, awareness[i], KNOWLEDGEABLE)


def run(graph: Graph, cfg: SimConfig) -> SimResult:
    """Run to quiescence or the round cap and measure the outcome."""
    world = init_population(graph, cfg)
    series = [tuple(world.counts)]
    while world.round < cfg.max_rounds and not world.is_quiescent():
        step(world)
        series.append(tuple(world.counts))
    n = max(world.n, 1)
    return SimResult(
        final_aware_fraction=world.aware_count() / n,
        final_both_fraction=world.both_count() / n,
        rounds_to_quiescence=world.round,
        hit_max_rounds=not world.is_quiescent(),
        time_series=series,
    )
