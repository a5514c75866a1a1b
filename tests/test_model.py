"""Agent-model rules, invariants and end-to-end run behaviour."""

import numpy as np
import pytest

from womlab.generators import (FfParams, SiiParams, WsParams, generate_ff, generate_sii,
                               generate_ws)
from womlab.graph import build_graph
from womlab.model import (AWARE, IGNORANT, KNOWLEDGEABLE, PROACTIVE, SEEKING,
                          UNAWARE, SimConfig, SimResult, World, deliver_awareness,
                          deliver_expertise, init_population, run, step)
from womlab.rng import round_half_up

BASE = dict(k=0.0, p_curious=0.0, p_enthusiastic=0.0, p_supporter=0.0,
            ad_rounds=0, seed=1)


def line_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def make_world(graph, **overrides):
    cfg = SimConfig(**{**BASE, **overrides})
    return init_population(graph, cfg)


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


# -- deliver_awareness --------------------------------------------------------


def test_awareness_curious_starts_seeking():
    w = make_world(line_graph(3))
    w.curious[1] = True
    deliver_awareness(w, 1)
    agent = w.agent(1)
    assert agent.awareness == SEEKING
    assert sorted(agent.unqueried_neighbors) == [0, 2]


def test_awareness_noncurious_becomes_aware():
    w = make_world(line_graph(3))
    deliver_awareness(w, 1)
    assert w.agent(1).awareness == AWARE
    assert w.agent(1).expertise == IGNORANT


def test_awareness_expert_supporter_promotes():
    w = make_world(line_graph(3), t_promote=4)
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    w.supporter[1] = True
    deliver_awareness(w, 1)
    agent = w.agent(1)
    assert agent.awareness == AWARE
    assert agent.expertise == PROACTIVE
    assert agent.promote_rounds_left == 4


def test_awareness_expert_non_supporter_stays_passive():
    w = make_world(line_graph(3))
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    deliver_awareness(w, 1)
    assert w.agent(1).awareness == AWARE
    assert w.agent(1).expertise == KNOWLEDGEABLE


def test_awareness_idempotent():
    w = make_world(line_graph(3))
    w.curious[1] = True
    deliver_awareness(w, 1)
    first = w.agent(1)
    deliver_awareness(w, 1)
    assert w.agent(1) == first


def test_awareness_unknown_agent():
    w = make_world(line_graph(3))
    with pytest.raises(ValueError):
        deliver_awareness(w, 7)
    with pytest.raises(ValueError):
        deliver_expertise(w, -1)


# -- deliver_expertise ----------------------------------------------------------


def test_expertise_seeker_enthusiastic_promotes():
    w = make_world(line_graph(3), t_promote=6)
    w.curious[1] = True
    w.enthusiastic[1] = True
    deliver_awareness(w, 1)
    deliver_expertise(w, 1)
    agent = w.agent(1)
    assert agent.awareness == AWARE
    assert agent.expertise == PROACTIVE
    assert agent.promote_rounds_left == 6


def test_expertise_seeker_passive_becomes_knowledgeable():
    w = make_world(line_graph(3))
    w.curious[1] = True
    deliver_awareness(w, 1)
    deliver_expertise(w, 1)
    assert w.agent(1).awareness == AWARE
    assert w.agent(1).expertise == KNOWLEDGEABLE


def test_expertise_idempotent():
    w = make_world(line_graph(3))
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    deliver_expertise(w, 1)
    assert w.agent(1).expertise == KNOWLEDGEABLE


def test_gathering_chain_backpropagates():
    # A(0) asked B(1) asked C(2); when C gains expertise both get it.
    w = make_world(line_graph(3))
    for i in (0, 1):
        w.curious[i] = True
    deliver_awareness(w, 0)
    deliver_awareness(w, 1)
    w.pending[1].append(0)
    w.pending[2].append(1)
    deliver_expertise(w, 2)
    assert all(w.expertise[i] != IGNORANT for i in range(3))
    assert w.awareness[0] == AWARE and w.awareness[1] == AWARE
    assert w.pending == [[], [], []]


def test_chain_survives_give_up():
    # seeker 0 queries its only neighbor, exhausts, gives up; expertise
    # arriving at 1 later still reaches 0 through the recorded request.
    w = make_world(line_graph(2))
    w.curious[0] = True
    deliver_awareness(w, 0)
    step(w)  # 0 queries 1 (no expertise), exhausts, gives up
    assert w.agent(0).awareness == AWARE
    assert 0 in w.agent(1).pending_requesters
    deliver_expertise(w, 1)
    assert w.expertise[0] != IGNORANT


def test_long_chain_no_recursion_limit():
    n = 1500
    w = make_world(line_graph(n))
    for i in range(n - 1):
        w.pending[i + 1].append(i)
    deliver_expertise(w, n - 1)
    assert all(e != IGNORANT for e in w.expertise)


# -- step -----------------------------------------------------------------------


def test_step_identity_when_quiescent():
    g = line_graph(5)
    w = make_world(g, k=0.4)
    before = [w.agent(i) for i in range(5)]
    step(w)
    assert [w.agent(i) for i in range(5)] == before
    assert w.is_quiescent()


def test_step_two_node_query_grant():
    w = make_world(build_graph(2, [(0, 1)]))
    w.curious[0] = True
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    deliver_awareness(w, 0)
    step(w)
    assert w.expertise[0] != IGNORANT and w.expertise[1] != IGNORANT
    assert w.awareness[0] == AWARE and w.awareness[1] == AWARE


def test_step_promoter_lifetime_expiry():
    w = make_world(line_graph(3), t_promote=1)
    w._move(1, UNAWARE, KNOWLEDGEABLE)
    w.supporter[1] = True
    deliver_awareness(w, 1)
    assert w.agent(1).expertise == PROACTIVE
    step(w)
    assert w.agent(1).expertise == KNOWLEDGEABLE


def test_step_promoter_pushes_both_to_passive_target():
    w = make_world(line_graph(2), t_promote=5)
    w._move(0, UNAWARE, KNOWLEDGEABLE)
    w.supporter[0] = True
    deliver_awareness(w, 0)
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
    deliver_awareness(w, 0)
    step(w)
    assert w.awareness[1] in (SEEKING, AWARE)
    # within at most one more round the seeker queries the promoter
    step(w)
    assert w.expertise[1] != IGNORANT


def test_advertisement_reaches_exact_share():
    g = generate_ws(WsParams(n=200, nei=2, p_rewire=0.0), 1)
    w = make_world(g, ad_rounds=1, ad_share=0.05, seed=9)
    step(w)
    assert len(w.ad_recipients) == 10
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
        seeker_gives_up=bool(rng.integers(0, 2)),
        max_rounds=300,
        seed=int(rng.integers(0, 2**32)),
    )
    return g, cfg


def _check_legality(w):
    for i in range(w.n):
        if w.awareness[i] == SEEKING:
            assert w.curious[i]
            assert w.expertise[i] == IGNORANT
        if w.expertise[i] == PROACTIVE:
            assert w.promote_left[i] >= 0
        assert w.busy[i] == (w.awareness[i] == SEEKING or w.expertise[i] == PROACTIVE)
    counts = [0] * 9
    for i in range(w.n):
        counts[w.awareness[i] * 3 + w.expertise[i]] += 1
    assert counts == w.counts


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
        snapshot = [w.agent(i) for i in range(w.n)]
        step(w)
        assert [w.agent(i) for i in range(w.n)] == snapshot, trial
        assert w.both_count() <= w.aware_count()


def test_reachability_oracle_on_disconnected_graphs():
    # expertise may only appear at seeded experts or nodes connected to
    # one; awareness only at ad recipients or nodes connected to one.
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

        def component(sources):
            seen = set(sources)
            stack = list(sources)
            while stack:
                u = stack.pop()
                for v in g.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        expert_reachable = component(seeded)
        aware_reachable = component(w.ad_recipients)
        for i in range(n):
            if w.expertise[i] != IGNORANT:
                assert i in expert_reachable, trial
            if w.awareness[i] != UNAWARE:
                assert i in aware_reachable, trial


# -- reference: the validating step, kept as the draw-order oracle ---------------


def _ref_shuffled_neighbors(w, i):
    neighbors = np.asarray(w.graph.adjacency[i], dtype=np.int64)
    w.rng.shuffle(neighbors)
    return neighbors.tolist()


def _ref_start_promoting(w, i):
    w.promote_left[i] = w.cfg.t_promote
    w.unpushed[i] = _ref_shuffled_neighbors(w, i)
    w.n_proactive += 1


def _ref_deliver_awareness(w, i, cause="contact"):
    w._check_id(i)
    if w.awareness[i] != UNAWARE:
        return
    if cause == "ad":
        w.ad_recipients.add(i)
    ex = w.expertise[i]
    if ex != IGNORANT:
        if w.supporter[i] and ex != PROACTIVE:
            w._move(i, AWARE, PROACTIVE)
            _ref_start_promoting(w, i)
        else:
            w._move(i, AWARE, ex)
    elif w.curious[i]:
        w._move(i, SEEKING, IGNORANT)
        episode = _ref_shuffled_neighbors(w, i)
        w.unqueried[i] = episode
        w.n_seeking += 1
        if not episode:
            w.n_seek_exhausted += 1
    else:
        w._move(i, AWARE, IGNORANT)


def _ref_deliver_expertise(w, agent_id):
    w._check_id(agent_id)
    stack = [agent_id]
    while stack:
        i = stack.pop()
        if w.expertise[i] != IGNORANT:
            continue
        if w.enthusiastic[i]:
            new_ex = PROACTIVE
            _ref_start_promoting(w, i)
        else:
            new_ex = KNOWLEDGEABLE
        aw = w.awareness[i]
        if aw == SEEKING:
            w.n_seeking -= 1
            if not w.unqueried[i]:
                w.n_seek_exhausted -= 1
            w.unqueried[i] = None
            aw = AWARE
        w._move(i, aw, new_ex)
        if w.pending[i]:
            stack.extend(w.pending[i])
            w.pending[i] = []


def reference_step(w):
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
                _ref_deliver_awareness(w, t, cause="ad")
    for i in rng.permutation(w.n).tolist():
        if w.awareness[i] == SEEKING:
            episode = w.unqueried[i]
            while episode and w.expertise[i] == IGNORANT:
                target = episode.pop()
                if not episode:
                    w.n_seek_exhausted += 1
                _ref_deliver_awareness(w, target)
                if w.expertise[target] != IGNORANT:
                    _ref_deliver_expertise(w, i)
                else:
                    w.pending[target].append(i)
            if w.awareness[i] == SEEKING and not w.unqueried[i] and cfg.seeker_gives_up:
                w.n_seeking -= 1
                w.n_seek_exhausted -= 1
                w.unqueried[i] = None
                w._move(i, AWARE, IGNORANT)
        elif w.expertise[i] == PROACTIVE:
            episode = w.unpushed[i]
            left = w.promote_left[i]
            if left > 0 and episode:
                target = episode.pop()
                _ref_deliver_awareness(w, target)
                if w.awareness[target] != SEEKING:
                    _ref_deliver_expertise(w, target)
                left -= 1
                w.promote_left[i] = left
            if left <= 0 or not episode:
                w.unpushed[i] = None
                w._move(i, w.awareness[i], KNOWLEDGEABLE)
                w.n_proactive -= 1


def reference_run(graph, cfg):
    w = init_population(graph, cfg)
    series = [tuple(w.counts)]
    while w.round < cfg.max_rounds and not w.is_quiescent():
        reference_step(w)
        series.append(tuple(w.counts))
    n = max(w.n, 1)
    return SimResult(w.aware_count() / n, w.both_count() / n, w.round,
                     not w.is_quiescent(), series), w


def _ws(n, seed):
    return generate_ws(WsParams(n=n, nei=3, p_rewire=0.1), seed)


@pytest.mark.parametrize("graph,overrides", [
    (_ws(200, 1), dict(k=0.01, p_curious=0.5, p_enthusiastic=0.5, p_supporter=0.1)),
    (_ws(200, 2), dict(k=0.1, p_curious=1.0, p_enthusiastic=0.0, p_supporter=0.5)),
    (_ws(200, 3), dict(k=0.5, p_curious=0.0, p_enthusiastic=1.0, p_supporter=0.0)),
    (_ws(200, 4), dict(k=0.0, p_curious=0.7, p_enthusiastic=0.7, p_supporter=0.7,
                       seeker_gives_up=False, max_rounds=5)),  # cut during the ads
    (_ws(200, 5), dict(k=0.05, p_curious=0.6, p_enthusiastic=0.3, p_supporter=0.2,
                       seeker_gives_up=False)),
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
], ids=["mixed", "all-curious", "all-enthusiastic", "no-give-up-capped", "no-give-up",
        "ad-share-1", "t-promote-0", "isolated", "default-ws", "default-ff", "default-sii"])
def test_run_matches_reference(graph, overrides):
    for seed in range(5):
        cfg = SimConfig(**{"ad_rounds": 8, "ad_share": 0.01, "t_promote": 15,
                           "seed": 1000 + seed, **overrides})
        expected, ref_world = reference_run(graph, cfg)
        assert run(graph, cfg) == expected, seed
        w = init_population(graph, cfg)
        while w.round < cfg.max_rounds and not w.is_quiescent():
            step(w)
        assert [w.agent(i) for i in range(w.n)] == [ref_world.agent(i) for i in range(w.n)]
        assert w.ad_recipients == ref_world.ad_recipients
