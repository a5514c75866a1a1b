"""Agent-model rules, invariants and end-to-end run behaviour."""

import copy

import numpy as np
import pytest

from womlab.generators import (FfParams, SiiParams, WsParams, generate_ff, generate_sii,
                               generate_ws)
from womlab.graph import build_graph, compute_metrics
from womlab.model import (AWARE, IGNORANT, KNOWLEDGEABLE, PROACTIVE, SEEKING,
                          UNAWARE, SimConfig, SimResult, World, _deliver_awareness,
                          _deliver_expertise, init_population, run, step)
from womlab.reporting import iter_records, records_csv_string
from womlab.rng import round_half_up
from womlab.sweep import run_record

BASE = dict(k=0.0, p_curious=0.0, p_enthusiastic=0.0, p_supporter=0.0,
            ad_rounds=0, seed=1)


def line_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def make_world(graph, **overrides):
    cfg = SimConfig(**{**BASE, **overrides})
    return init_population(graph, cfg)


PER_AGENT_LISTS = ("awareness", "expertise", "curious", "enthusiastic", "supporter",
                   "episode")
# Every other World slot; a new slot must join one of the two tuples.
WORLD_SLOTS = ("cfg", "rng", "n", "indptr", "indices", "pending", "round", "counts")


def open_requests(w):
    """``pending`` as {agent: requesters}, over the agents with open requests."""
    return {i: requesters for i, requesters in w.pending.items() if requesters}


def live_agent_lists(w):
    """Every per-agent list and the open requests, uncopied, for comparing
    two worlds as they stand."""
    return [getattr(w, name) for name in PER_AGENT_LISTS] + [open_requests(w)]


def agent_lists(w):
    """Deep copy of every per-agent list, for whole-world comparisons."""
    return copy.deepcopy(live_agent_lists(w))


def test_agent_lists_cover_every_per_agent_slot():
    assert sorted(PER_AGENT_LISTS + WORLD_SLOTS) == sorted(World.__slots__)
    w = make_world(line_graph(4))
    assert all(len(getattr(w, name)) == w.n for name in PER_AGENT_LISTS)


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(k=1.2, p_curious=0, p_enthusiastic=0, p_supporter=0)
    with pytest.raises(ValueError):
        SimConfig(k=0, p_curious=-0.1, p_enthusiastic=0, p_supporter=0)
    with pytest.raises(ValueError):
        SimConfig(k=0, p_curious=0, p_enthusiastic=0, p_supporter=0, ad_rounds=-1)
    with pytest.raises(ValueError):
        SimConfig(k=0, p_curious=0, p_enthusiastic=0, p_supporter=0, seed=-1)


@pytest.mark.parametrize("name,value,stored", [
    ("seed", np.uint64(5), 5),
    ("seed", True, 1),
    ("ad_rounds", np.int64(2), 2),
    ("t_promote", np.uint8(3), 3),
    ("max_rounds", True, 1),
    ("ad_rounds", 2.5, None),
    ("t_promote", 2.5, None),
    ("max_rounds", 2.0, None),
])
def test_config_stores_checked_integers(name, value, stored, tmp_path):
    # Counts and the seed are stored as plain ints; a non-integer fails
    # at construction, naming the field, not in the middle of a run.
    if stored is None:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{**BASE, name: value})
        return
    cfg = SimConfig(**{**BASE, name: value})
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == stored
    graph = line_graph(4)
    text = records_csv_string([run_record("file", 0, cfg, run(graph, cfg),
                                          compute_metrics(graph))])
    (tmp_path / "records.csv").write_text(text, encoding="utf-8")
    [back] = iter_records(tmp_path / "records.csv")
    assert back.sim_seed == cfg.seed and records_csv_string([back]) == text


# -- initialization -----------------------------------------------------------


def test_init_k_extremes():
    g = generate_ws(WsParams(n=50, nei=2, p_rewire=0.1), 3)
    w0 = make_world(g, k=0.0)
    assert all(e == IGNORANT for e in w0.expertise)
    w1 = make_world(g, k=1.0)
    assert all(e == KNOWLEDGEABLE for e in w1.expertise)
    assert all(a == UNAWARE for a in w1.awareness)


def test_init_exact_counts():
    g = generate_ws(WsParams(n=1000, nei=5, p_rewire=0.0), 3)
    w = make_world(g, k=0.01, p_curious=0.3, p_enthusiastic=0.25, p_supporter=0.5)
    assert sum(1 for e in w.expertise if e == KNOWLEDGEABLE) == 10
    assert sum(w.curious) == 300
    assert sum(w.enthusiastic) == 250
    assert sum(w.supporter) == 500


def test_init_half_up_rounding():
    g = line_graph(10)
    w = make_world(g, k=0.25)  # 2.5 agents -> 3
    assert sum(1 for e in w.expertise if e != IGNORANT) == 3


def test_init_deterministic():
    g = generate_ws(WsParams(n=100, nei=3, p_rewire=0.2), 8)
    w1 = make_world(g, k=0.2, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.5, seed=42)
    w2 = make_world(g, k=0.2, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.5, seed=42)
    assert w1.expertise == w2.expertise
    assert w1.curious == w2.curious and w1.supporter == w2.supporter


# -- _deliver_awareness -------------------------------------------------------


def test_awareness_curious_starts_seeking():
    w = make_world(line_graph(3))
    w.curious[1] = True
    _deliver_awareness(w, 1)
    assert w.awareness[1] == SEEKING
    assert sorted(w.episode[1]) == [0, 2]


def test_awareness_noncurious_becomes_aware():
    w = make_world(line_graph(3))
    _deliver_awareness(w, 1)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == IGNORANT


def test_awareness_expert_supporter_promotes():
    w = make_world(line_graph(3), t_promote=4)
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    w.supporter[1] = True
    _deliver_awareness(w, 1)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == PROACTIVE
    assert sorted(w.episode[1]) == [0, 2]  # budget 4, two neighbors


def test_awareness_expert_non_supporter_stays_passive():
    w = make_world(line_graph(3))
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    _deliver_awareness(w, 1)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == KNOWLEDGEABLE


def test_awareness_idempotent():
    w = make_world(line_graph(3))
    w.curious[1] = True
    _deliver_awareness(w, 1)
    first = agent_lists(w)
    _deliver_awareness(w, 1)
    assert agent_lists(w) == first


# -- _deliver_expertise ---------------------------------------------------------


def test_expertise_seeker_enthusiastic_promotes():
    w = make_world(line_graph(3), t_promote=6)
    w.curious[1] = True
    w.enthusiastic[1] = True
    _deliver_awareness(w, 1)
    seeking = w.episode[1]
    _deliver_expertise(w, 1)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == PROACTIVE
    assert sorted(w.episode[1]) == [0, 2]  # budget 6, two neighbors
    assert w.episode[1] is not seeking


def test_expertise_seeker_passive_becomes_knowledgeable():
    w = make_world(line_graph(3))
    w.curious[1] = True
    _deliver_awareness(w, 1)
    _deliver_expertise(w, 1)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == KNOWLEDGEABLE
    assert w.episode[1] is None


def test_expertise_idempotent():
    w = make_world(line_graph(3))
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    _deliver_expertise(w, 1)
    assert w.expertise[1] == KNOWLEDGEABLE


def test_gathering_chain_backpropagates():
    # A(0) asked B(1) asked C(2); when C gains expertise both get it.
    w = make_world(line_graph(3))
    for i in (0, 1):
        w.curious[i] = True
    _deliver_awareness(w, 0)
    _deliver_awareness(w, 1)
    w.pending[1].append(0)
    w.pending[2].append(1)
    _deliver_expertise(w, 2)
    assert all(w.expertise[i] != IGNORANT for i in range(3))
    assert w.awareness[0] == AWARE and w.awareness[1] == AWARE
    assert not any(w.pending.values())


def test_chain_survives_give_up():
    # seeker 0 queries its only neighbor, exhausts, gives up; expertise
    # arriving at 1 later still reaches 0 through the recorded request.
    w = make_world(line_graph(2))
    w.curious[0] = True
    _deliver_awareness(w, 0)
    step(w)  # 0 queries 1 (no expertise), exhausts, gives up
    assert w.awareness[0] == AWARE
    assert 0 in w.pending[1]
    _deliver_expertise(w, 1)
    assert w.expertise[0] != IGNORANT


def test_long_chain_no_recursion_limit():
    n = 1500
    w = make_world(line_graph(n))
    for i in range(n - 1):
        w.pending[i + 1].append(i)
    _deliver_expertise(w, n - 1)
    assert all(e != IGNORANT for e in w.expertise)


# -- step -----------------------------------------------------------------------


def test_step_identity_when_quiescent():
    g = line_graph(5)
    w = make_world(g, k=0.4)
    before = agent_lists(w)
    step(w)
    assert agent_lists(w) == before
    assert w.is_quiescent()


def test_step_two_node_query_grant():
    w = make_world(build_graph(2, [(0, 1)]))
    w.curious[0] = True
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    _deliver_awareness(w, 0)
    step(w)
    assert w.expertise[0] != IGNORANT and w.expertise[1] != IGNORANT
    assert w.awareness[0] == AWARE and w.awareness[1] == AWARE


def test_step_promoter_lifetime_expiry():
    w = make_world(line_graph(3), t_promote=1)
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    w.supporter[1] = True
    _deliver_awareness(w, 1)
    assert w.expertise[1] == PROACTIVE
    step(w)
    assert w.expertise[1] == KNOWLEDGEABLE


def test_step_hub_promoter_pushes_only_its_budget():
    # A hub of degree 6 with a budget of 3 pushes to 3 distinct leaves,
    # one per round, and retires in the round of its last push.
    w = make_world(build_graph(7, [(0, leaf) for leaf in range(1, 7)]), t_promote=3)
    w._move(0, UNAWARE, KNOWLEDGEABLE)
    w.supporter[0] = True
    _deliver_awareness(w, 0)
    assert len(w.episode[0]) == 3
    for pushed in (1, 2, 3):
        assert w.expertise[0] == PROACTIVE
        step(w)
        leaves = [leaf for leaf in range(1, 7) if w.expertise[leaf] == KNOWLEDGEABLE]
        assert len(leaves) == pushed
    assert w.expertise[0] == KNOWLEDGEABLE and w.episode[0] is None
    assert w.is_quiescent()


def test_step_promoter_pushes_both_to_passive_target():
    w = make_world(line_graph(2), t_promote=5)
    w._move(0, UNAWARE, KNOWLEDGEABLE)
    w.supporter[0] = True
    _deliver_awareness(w, 0)
    step(w)
    assert w.awareness[1] == AWARE
    assert w.expertise[1] == KNOWLEDGEABLE


def test_step_pushed_curious_target_keeps_seeking():
    # a promoter's push makes a curious neighbor seek rather than
    # handing expertise over; the seeker recovers it by querying.
    w = make_world(line_graph(2), t_promote=5)
    w._move(0, UNAWARE, KNOWLEDGEABLE)
    w.supporter[0] = True
    w.curious[1] = True
    _deliver_awareness(w, 0)
    step(w)
    assert w.awareness[1] in (SEEKING, AWARE)
    # within at most one more round the seeker queries the promoter
    step(w)
    assert w.expertise[1] != IGNORANT


def test_advertisement_reaches_exact_share():
    g = generate_ws(WsParams(n=200, nei=2, p_rewire=0.0), 1)
    w = make_world(g, ad_rounds=1, ad_share=0.05, seed=9)
    step(w)
    assert w.aware_count() == 10  # nobody curious/proactive, no spread


# -- run ----------------------------------------------------------------------


def test_run_no_expertise_available():
    g = generate_ws(WsParams(n=100, nei=2, p_rewire=0.1), 4)
    cfg = SimConfig(k=0.0, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.5,
                    ad_rounds=2, ad_share=0.05, seed=11)
    result = run(g, cfg)
    assert result.final_both_fraction == 0.0
    assert not result.hit_max_rounds


def test_run_all_experts_all_supporters():
    g = generate_ws(WsParams(n=100, nei=2, p_rewire=0.1), 4)
    cfg = SimConfig(k=1.0, p_curious=0.0, p_enthusiastic=0.0, p_supporter=1.0,
                    ad_rounds=2, ad_share=0.05, seed=11)
    result = run(g, cfg)
    assert result.final_both_fraction == result.final_aware_fraction > 0


def test_run_deterministic():
    g = generate_ws(WsParams(n=150, nei=3, p_rewire=0.1), 21)
    cfg = SimConfig(k=0.05, p_curious=0.4, p_enthusiastic=0.4, p_supporter=0.1, seed=77)
    r1 = run(g, cfg)
    r2 = run(g, cfg)
    assert r1 == r2


def test_run_time_series_shape():
    g = generate_ws(WsParams(n=60, nei=2, p_rewire=0.1), 2)
    cfg = SimConfig(k=0.1, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.0, seed=5)
    result = run(g, cfg)
    assert len(result.time_series) == result.rounds_to_quiescence + 1
    assert all(len(row) == 9 and sum(row) == 60 for row in result.time_series)


# -- invariants over random configurations ---------------------------------------


def _random_world(rng):
    n = 50
    g = generate_ws(WsParams(n=n, nei=2, p_rewire=float(rng.random() * 0.5)),
                    int(rng.integers(0, 2**32)))
    cfg = SimConfig(
        k=float(rng.choice([0.0, 0.02, 0.1, 0.5, 1.0])),
        p_curious=float(rng.random()),
        p_enthusiastic=float(rng.random()),
        p_supporter=float(rng.random()),
        ad_rounds=int(rng.integers(0, 4)),
        ad_share=float(rng.choice([0.0, 0.02, 0.1])),
        t_promote=int(rng.integers(0, 6)),
        max_rounds=300,
        seed=int(rng.integers(0, 2**32)),
    )
    return g, cfg


def _check_legality(w):
    seekers = [i for i in range(w.n) if w.awareness[i] == SEEKING]
    promoters = [i for i in range(w.n) if w.expertise[i] == PROACTIVE]
    for i in seekers:
        assert w.curious[i]
        assert w.expertise[i] == IGNORANT
    for i in promoters:
        assert len(w.episode[i]) <= w.cfg.t_promote
    assert [i for i in range(w.n) if w.episode[i] is not None] == sorted(seekers + promoters)
    counts = [0] * 9
    for i in range(w.n):
        counts[w.awareness[i] * 3 + w.expertise[i]] += 1
    assert counts == w.counts
    # Quiescent: advertising over, nobody seeks or promotes.
    assert w.is_quiescent() == (w.round >= w.cfg.ad_rounds and not promoters and not seekers)


def test_state_machine_invariants_200_random_configs():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        g, cfg = _random_world(rng)
        w = init_population(g, cfg)
        aware_prev: set[int] = set()
        expert_prev = {i for i in range(w.n) if w.expertise[i] != IGNORANT}
        rounds = 0
        while rounds < cfg.max_rounds and not w.is_quiescent():
            step(w)
            rounds += 1
            aware_now = {i for i in range(w.n) if w.awareness[i] != UNAWARE}
            expert_now = {i for i in range(w.n) if w.expertise[i] != IGNORANT}
            assert aware_prev <= aware_now, trial
            assert expert_prev <= expert_now, trial
            aware_prev, expert_prev = aware_now, expert_now
            _check_legality(w)
        if not w.is_quiescent():
            continue  # truncated runs have no stability guarantee
        snapshot = agent_lists(w)
        step(w)
        assert agent_lists(w) == snapshot, trial
        assert w.both_count() <= w.aware_count()


def test_reachability_oracle_on_disconnected_graphs():
    # expertise may only appear at seeded experts or nodes connected to
    # one; awareness only at ad targets (as the oracle run on the same
    # graph and config records them) or nodes connected to one.
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = 50
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(40, 2)) if a != b]
        g = build_graph(n, edges)
        cfg = SimConfig(k=0.1, p_curious=0.6, p_enthusiastic=0.6, p_supporter=0.2,
                        ad_rounds=2, ad_share=0.05, max_rounds=200,
                        seed=int(rng.integers(0, 2**32)))
        w = init_population(g, cfg)
        seeded = {i for i in range(n) if w.expertise[i] != IGNORANT}
        while w.round < cfg.max_rounds and not w.is_quiescent():
            step(w)
        _, ref_world, ref = reference_run(g, cfg)
        assert live_agent_lists(w) == ref_agent_lists(ref_world, ref), trial

        indptr, indices = g.csr_arrays()

        def component(sources):
            seen = set(sources)
            stack = list(sources)
            while stack:
                u = stack.pop()
                for v in indices[indptr[u]:indptr[u + 1]].tolist():
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        expert_reachable = component(seeded)
        aware_reachable = component(ref.ad_targets)
        for i in range(n):
            if w.expertise[i] != IGNORANT:
                assert i in expert_reachable, trial
            if w.awareness[i] != UNAWARE:
                assert i in aware_reachable, trial


# -- reference: the validating step, kept as the draw-order oracle ---------------
#
# The oracle keeps its own state in RefEpisodes, next to a World whose
# `episode` list it never touches: the graph it shuffles neighbors from,
# separate query and push lists, a push budget per promoter and the set of
# ad targets.


class RefEpisodes:
    def __init__(self, graph):
        self.graph = graph
        self.ad_targets = set()
        n = graph.node_count
        self.unqueried = [None] * n
        self.unpushed = [None] * n
        self.promote_left = [0] * n

    def as_episode(self):
        """The same state in World.episode's form: a promoter's list keeps
        only the neighbors its remaining budget still reaches."""
        episode = []
        for queries, pushes, left in zip(self.unqueried, self.unpushed, self.promote_left):
            if queries is not None:
                episode.append(queries)
            elif pushes is not None:
                episode.append(pushes[max(len(pushes) - left, 0):])
            else:
                episode.append(None)
        return episode


def ref_agent_lists(w, ref):
    """The oracle world's per-agent lists, its episodes in World's form,
    and its open requests."""
    assert all(e is None for e in w.episode)  # the oracle never sets it
    return [ref.as_episode() if name == "episode" else getattr(w, name)
            for name in PER_AGENT_LISTS] + [open_requests(w)]


def _ref_is_quiescent(w):
    counts = w.counts
    if w.round < w.cfg.ad_rounds or any(counts[PROACTIVE::3]):
        return False
    return counts[SEEKING * 3 + IGNORANT] == 0


def _ref_shuffled_neighbors(w, ref, i):
    indptr, indices = ref.graph.csr_arrays()
    neighbors = indices[indptr[i]:indptr[i + 1]].copy()  # shuffle works in place
    w.rng.shuffle(neighbors)
    return neighbors.tolist()


def _ref_start_promoting(w, ref, i):
    ref.promote_left[i] = w.cfg.t_promote
    ref.unpushed[i] = _ref_shuffled_neighbors(w, ref, i)


def _ref_deliver_awareness(w, ref, i, cause="contact"):
    assert 0 <= i < w.n
    if w.awareness[i] != UNAWARE:
        return
    if cause == "ad":
        ref.ad_targets.add(i)
    ex = w.expertise[i]
    if ex != IGNORANT:
        if w.supporter[i] and ex != PROACTIVE:
            w._move(i, AWARE, PROACTIVE)
            _ref_start_promoting(w, ref, i)
        else:
            w._move(i, AWARE, ex)
    elif w.curious[i]:
        w._move(i, SEEKING, IGNORANT)
        episode = _ref_shuffled_neighbors(w, ref, i)
        ref.unqueried[i] = episode
    else:
        w._move(i, AWARE, IGNORANT)


def _ref_deliver_expertise(w, ref, agent_id):
    assert 0 <= agent_id < w.n
    stack = [agent_id]
    while stack:
        i = stack.pop()
        if w.expertise[i] != IGNORANT:
            continue
        if w.enthusiastic[i]:
            new_ex = PROACTIVE
            _ref_start_promoting(w, ref, i)
        else:
            new_ex = KNOWLEDGEABLE
        aw = w.awareness[i]
        if aw == SEEKING:
            ref.unqueried[i] = None
            aw = AWARE
        w._move(i, aw, new_ex)
        if w.pending[i]:
            stack.extend(w.pending[i])
            w.pending[i] = []


def reference_step(w, ref):
    cfg, rng = w.cfg, w.rng
    w.round += 1
    if w.round <= cfg.ad_rounds:
        reach = round_half_up(cfg.ad_share * w.n)
        if reach:
            pool = [i for i in range(w.n) if w.awareness[i] == UNAWARE]
            if reach >= len(pool):
                targets = pool
            else:
                picks = rng.choice(len(pool), size=reach, replace=False)
                targets = [pool[j] for j in picks.tolist()]
            for t in targets:
                _ref_deliver_awareness(w, ref, t, cause="ad")
    for i in rng.permutation(w.n).tolist():
        if w.awareness[i] == SEEKING:
            episode = ref.unqueried[i]
            while episode and w.expertise[i] == IGNORANT:
                target = episode.pop()
                _ref_deliver_awareness(w, ref, target)
                if w.expertise[target] != IGNORANT:
                    _ref_deliver_expertise(w, ref, i)
                else:
                    w.pending[target].append(i)
            if w.awareness[i] == SEEKING and not ref.unqueried[i]:
                ref.unqueried[i] = None
                w._move(i, AWARE, IGNORANT)
        elif w.expertise[i] == PROACTIVE:
            episode = ref.unpushed[i]
            left = ref.promote_left[i]
            if left > 0 and episode:
                target = episode.pop()
                _ref_deliver_awareness(w, ref, target)
                if w.awareness[target] != SEEKING:
                    _ref_deliver_expertise(w, ref, target)
                left -= 1
                ref.promote_left[i] = left
            if left <= 0 or not episode:
                ref.unpushed[i] = None
                w._move(i, w.awareness[i], KNOWLEDGEABLE)


def reference_run(graph, cfg):
    w = init_population(graph, cfg)
    ref = RefEpisodes(graph)
    series = [tuple(w.counts)]
    while w.round < cfg.max_rounds and not _ref_is_quiescent(w):
        reference_step(w, ref)
        series.append(tuple(w.counts))
    n = max(w.n, 1)
    return SimResult(w.aware_count() / n, w.both_count() / n, w.round,
                     not _ref_is_quiescent(w), series), w, ref


def _ws(n, seed):
    return generate_ws(WsParams(n=n, nei=3, p_rewire=0.1), seed)


@pytest.mark.parametrize("graph,overrides", [
    (_ws(200, 1), dict(k=0.01, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.1)),
    (_ws(200, 2), dict(k=0.1, p_curious=1.0, p_enthusiastic=0.0, p_supporter=0.5)),
    (_ws(200, 3), dict(k=0.5, p_curious=0.0, p_enthusiastic=1.0, p_supporter=0.0)),
    (_ws(200, 4), dict(k=0.0, p_curious=0.7, p_enthusiastic=0.7, p_supporter=0.7,
                       max_rounds=5)),  # cut during the ads
    (_ws(200, 6), dict(k=0.02, p_curious=0.4, p_enthusiastic=0.4, p_supporter=0.4,
                       ad_share=1.0)),
    (_ws(200, 7), dict(k=0.1, p_curious=0.5, p_enthusiastic=1.0, p_supporter=1.0,
                       t_promote=0)),
    (build_graph(120, [(i, i + 1) for i in range(79)]),  # 40 isolated nodes
     dict(k=0.05, p_curious=0.8, p_enthusiastic=0.5, p_supporter=0.3, ad_share=0.1)),
    (generate_ws(WsParams(), 9), dict(k=0.01, p_curious=0.5, p_enthusiastic=0.5,
                                      p_supporter=0.0)),
    # Hubs of degree up to 232: long neighbor shuffles.
    (generate_ff(FfParams(), 4), dict(k=0.01, p_curious=0.5, p_enthusiastic=0.5,
                                      p_supporter=0.1)),
    (generate_sii(SiiParams(), 1), dict(k=0.1, p_curious=1.0, p_enthusiastic=0.5,
                                        p_supporter=0.5)),
], ids=["mixed", "all-curious", "all-enthusiastic", "capped", "ad-share-1", "t-promote-0",
        "isolated", "default-ws", "default-ff", "default-sii"])
def test_run_matches_reference(graph, overrides):
    for seed in range(5):
        cfg = SimConfig(**{"ad_rounds": 8, "ad_share": 0.01, "t_promote": 15,
                           "seed": 1000 + seed, **overrides})
        expected, _, _ = reference_run(graph, cfg)
        result = run(graph, cfg)
        assert result == expected, seed
        assert result.hit_max_rounds == ("max_rounds" in overrides), seed  # only "capped" is cut
        # In lockstep, so a wrong ad target fails in the round it was drawn.
        w = init_population(graph, cfg)
        ref_world, ref = init_population(graph, cfg), RefEpisodes(graph)
        while True:
            assert live_agent_lists(w) == ref_agent_lists(ref_world, ref), (seed, w.round)
            if w.round >= cfg.max_rounds or w.is_quiescent():
                break
            step(w)
            reference_step(ref_world, ref)
