import random
from itertools import product

import pytest

from contsolve import containers, mis
from contsolve.core import (
    Graph,
    ParameterError,
    VertexSet,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
    random_regular_graph,
)
from contsolve.containers import (
    CANDIDATE_BUDGET,
    build_almost_regular_collection,
    build_regular_collection,
    maximal_masks,
)
from contsolve.mis import (
    MisConfig,
    _clique_cover_bound,
    _greedy_seed,
    _may_hold_earlier_tie,
    mis_base,
    mis_containers,
)
from oracles import all_independent_sets, max_independent_set_size, max_weight_independent_set

MIS_AUTO_PATH = "base (auto: B&B inside containers measured slower than on V)"


class TestMisBase:
    def test_complete_graph(self):
        r = mis_base(complete_graph(5))
        assert r.size == 1
        assert tuple(r.best) == (0,)

    def test_even_cycle(self):
        r = mis_base(cycle_graph(6))
        assert r.size == 3
        assert tuple(r.best) == (0, 2, 4)

    def test_petersen(self):
        assert mis_base(petersen_graph()).size == 4

    def test_edgeless(self):
        r = mis_base(Graph(4, []))
        assert r.size == 4 and r.weight == 4

    def test_matches_oracle_sizes(self):
        rng = random.Random(50)
        for _ in range(40):
            n = rng.randint(1, 12)
            g = random_graph(n, 0.4, rng.randrange(10**6))
            r = mis_base(g)
            assert r.size == max_independent_set_size(g)
            assert g.is_independent(r.best.mask)

    def test_weighted_matches_oracle(self):
        rng = random.Random(51)
        for _ in range(40):
            n = rng.randint(1, 11)
            g = random_graph(n, 0.45, rng.randrange(10**6))
            weights = [rng.randint(0, 9) for _ in range(n)]
            r = mis_base(g, weights)
            assert r.weight == max_weight_independent_set(g, weights)
            assert g.is_independent(r.best.mask)

    def test_tie_break_lexicographic(self):
        # two symmetric optima in C4: {0, 2} and {1, 3}
        assert tuple(mis_base(cycle_graph(4)).best) == (0, 2)

    def test_rejects_bad_weights(self):
        with pytest.raises(ParameterError):
            mis_base(cycle_graph(4), [1, 2, 3])
        with pytest.raises(ParameterError):
            mis_base(cycle_graph(4), [1, -1, 1, 1])

    def test_within_and_incumbent_match_brute_force(self):
        # the best, by weight then smallest sorted tuple, of the incumbent and
        # the independent subsets of `within`; the greedy seed when no
        # incumbent is given lies inside `within`, so it never wins alone
        rng = random.Random(57)
        outside = 0
        for trial in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [1] * n if trial % 2 else [rng.randint(0, 3) for _ in range(n)]
            within = rng.getrandbits(n)
            isets = all_independent_sets(g)
            incumbent = None if trial % 5 == 0 else rng.choice(isets)
            pool = [m for m in isets if not m & ~within]
            if incumbent is not None:
                pool.append(incumbent)
                outside += bool(incumbent & ~within)

            def key(m):
                return -sum(weights[v] for v in VertexSet(m)), tuple(VertexSet(m))

            expected = min(pool, key=key)
            r = mis_base(g, weights, within=within, incumbent=incumbent)
            assert r.best.mask == expected
            assert r.weight == -key(expected)[0] and r.size == expected.bit_count()
        assert outside > 20

    def test_rejects_bad_within_and_incumbent(self):
        g = cycle_graph(4)
        for kwargs in ({"within": 1 << 4}, {"within": -1}, {"incumbent": 0b11}, {"incumbent": 1 << 5}):
            with pytest.raises(ParameterError):
                mis_base(g, **kwargs)


class TestMisContainers:
    def test_base_mode_passthrough(self):
        r = mis_containers(cycle_graph(6), MisConfig(mode="base"))
        assert r.size == 3 and r.stats["path"] == "base"

    def test_edgeless_shortcut(self):
        r = mis_containers(Graph(5, []), MisConfig(mode="containers"))
        assert r.size == 5 and r.stats["path"] == "edgeless"

    def test_edgeless_shortcut_is_the_base_answer(self):
        config = MisConfig(mode="containers")
        for n in range(8):
            g = Graph(n, [])
            for weights in product(range(3), repeat=n):
                weights = list(weights)
                want = mis_base(g, weights)
                got = mis_containers(g, config, weights)
                assert got.stats["path"] == "edgeless"
                assert (got.best, got.size, got.weight) == (want.best, want.size, want.weight)

    def test_auto_low_degree_dispatches_to_base(self):
        r = mis_containers(cycle_graph(8), MisConfig(mode="auto"))
        assert r.size == 4
        assert "base" in r.stats["path"]

    def test_auto_is_the_base_answer(self, monkeypatch):
        # auto builds no collection, on regular, G(n, p) and edgeless graphs
        # alike, and names the reason for running the base solver
        def no_build(*args, **kwargs):
            raise AssertionError("auto built a container collection")

        monkeypatch.setattr(mis, "build_regular_collection", no_build)
        monkeypatch.setattr(mis, "build_almost_regular_collection", no_build)
        rng = random.Random(58)
        cases = [(Graph(n, []), list(w)) for n in range(5) for w in product(range(4), repeat=n)]
        for _ in range(15):
            n, d = rng.choice([(10, 3), (12, 4), (14, 6), (16, 8)])
            regular = random_regular_graph(n, d, rng.randrange(10**6))
            gnp = random_graph(rng.randint(4, 14), rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            for g in (regular, gnp):
                cases += [(g, None), (g, [rng.randint(0, 3) for _ in range(g.n)])]
        for g, weights in cases:
            want = mis_base(g, weights)
            got = mis_containers(g, weights=weights)
            assert (got.best, got.size, got.weight) == (want.best, want.size, want.weight)
            assert got.stats == {**want.stats, "path": MIS_AUTO_PATH}

    def test_epsilon_checked_in_every_mode(self):
        for g in (random_graph(12, 0.4, 3), random_regular_graph(12, 4, 1), Graph(3, [])):
            for mode in ("auto", "base", "containers"):
                for eps in (0.0, 0.5, 0.9, -0.1):
                    with pytest.raises(ParameterError, match="epsilon"):
                        mis_containers(g, MisConfig(mode=mode, epsilon=eps))

    def test_containers_mode_forces_build(self):
        r = mis_containers(cycle_graph(8), MisConfig(mode="containers"))
        assert r.size == 4
        assert r.stats["path"] == "containers"

    def test_low_degree_regular_walk_stops_at_the_budget(self):
        # two 3-regular n=24 graphs of acceptance criterion 8, which walk
        # 27,881 and 27,789 fingerprints at tau = 1: the driver raises tau,
        # the containers keep the scheme's bound at epsilon' = tau/3, and
        # the answer is the base path's
        for seed in (538876, 810624):
            g = random_regular_graph(24, 3, seed)
            coll = build_regular_collection(g, 0.25, force=True)
            tau = coll.stats["tau"]
            assert tau > coll.params.tau and coll.stats["candidate_count"] <= CANDIDATE_BUDGET
            assert coll.stats["max_container_size"] <= (1.0 / (2.0 - tau / 3) + 1.0 / tau) * g.n
            base = mis_base(g)
            cont = mis_containers(g, MisConfig(mode="containers"))
            assert (cont.size, cont.weight) == (base.size, base.weight)

    def test_regular_agrees_with_base(self):
        rng = random.Random(52)
        for _ in range(15):
            n = rng.choice([10, 12, 14, 16])
            d = rng.choice([4, 6])
            g = random_regular_graph(n, d, rng.randrange(10**6))
            b = mis_base(g)
            c = mis_containers(g, MisConfig(mode="containers"))
            assert c.size == b.size and c.weight == b.weight
            assert g.is_independent(c.best.mask)

    def test_irregular_agrees_with_base(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(6, 16)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            if g.m == 0:
                continue
            b = mis_base(g)
            c = mis_containers(g, MisConfig(mode="containers"))
            assert c.size == b.size

    def test_weighted_agrees_with_oracle(self):
        rng = random.Random(54)
        for _ in range(15):
            n = rng.randint(6, 12)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            if g.m == 0:
                continue
            weights = [rng.randint(0, 9) for _ in range(n)]
            c = mis_containers(g, MisConfig(mode="containers"), weights)
            assert c.weight == max_weight_independent_set(g, weights)

    def test_dense_regular_subproblem_bound(self):
        # with slack 0.45 each container holds at most
        # (1/(2 - 0.45) + 1/(0.45 d)) n vertices, below 0.95 n for d >= 8
        rng = random.Random(55)
        for _ in range(4):
            g = random_regular_graph(18, 8, rng.randrange(10**6))
            cfg = MisConfig(mode="containers", epsilon=0.45, force=True)
            c = mis_containers(g, cfg)
            assert c.size == mis_base(g).size
            assert c.stats["largest_subproblem"] <= (0.5 + 0.45) * g.n

    def test_same_tie_break_as_base_on_maximal_containers(self):
        # the optimum with the smallest sorted vertex tuple lies in some
        # container the cut walk keeps, so solving only those keeps
        # mis_base's answer; every kept container is one of the uncut walk's
        rng = random.Random(56)
        for trial in range(24):
            weights_unit = trial % 2 == 0
            if trial % 4 < 2:
                g = random_regular_graph(rng.choice([10, 12, 14]), 4, rng.randrange(10**6))
                coll = build_regular_collection(g, 0.25, force=True)
            else:
                g = random_graph(rng.randint(8, 13), 0.45, rng.randrange(10**6))
                if g.m == 0:
                    continue
                coll = build_almost_regular_collection(g)
            weights = None if weights_unit else [rng.randint(0, 3) for _ in range(g.n)]
            c, kept = _solve_and_capture(g, MisConfig(mode="containers"), weights)
            assert c.best == mis_base(g, weights).best
            assert c.stats["containers"] == len(kept.containers)
            assert {x.mask for x in kept.containers} <= {x.mask for x in coll.containers}
            assert kept.stats["tau"] == coll.stats["tau"]

    def test_incumbent_is_carried_across_containers(self):
        # one incumbent threaded through the maximal containers prunes more
        # than a fresh greedy seed per container
        rng = random.Random(58)
        for _ in range(4):
            g = random_regular_graph(18, 8, rng.randrange(10**6))
            coll = build_regular_collection(g, 0.45, force=True)
            standalone = sum(
                mis_base(g, within=c).stats["nodes"]
                for c in maximal_masks(x.mask for x in coll.containers)
            )
            c = mis_containers(g, MisConfig(mode="containers", epsilon=0.45, force=True))
            assert c.stats["nodes"] < standalone

    def test_rejects_bad_weights(self):
        for weights in ([1, 2, 3], [1, -1, 1, 1]):
            with pytest.raises(ParameterError):
                mis_containers(cycle_graph(4), MisConfig(mode="containers"), weights)
        with pytest.raises(ParameterError):
            mis_containers(Graph(3, []), weights=[1, 1])

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            mis_containers(cycle_graph(4), MisConfig(mode="fastest"))


def _solve_and_capture(g, config, weights=None):
    """mis_containers' result and the cut collection its walk built."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("build_regular_collection", "build_almost_regular_collection"):

            def capture(*args, _real=getattr(mis, name), **kwargs):
                built.append(_real(*args, **kwargs))
                return built[-1]

            mp.setattr(mis, name, capture)
        return mis_containers(g, config, weights), built[0]


def _priced_cases(seed, count):
    """(graph, weights, collection, config) on forced regular and G(n, p)
    graphs, built as mis_containers builds them; weights 0-3, so zero
    weights and equal-weight optima are common."""
    rng = random.Random(seed)
    for trial in range(count):
        if trial % 2 == 0:
            n, d = rng.choice([12, 14, 16]), rng.choice([4, 6, 8])
            g = random_regular_graph(n, d, rng.randrange(10**6))
            eps = rng.choice([0.25, 0.45])
            coll = build_regular_collection(g, eps, force=True)
            config = MisConfig(mode="containers", epsilon=eps, force=True)
        else:
            g = random_graph(rng.randint(8, 16), rng.choice([0.3, 0.45]), rng.randrange(10**6))
            if g.m == 0:
                continue
            coll = build_almost_regular_collection(g)
            config = MisConfig(mode="containers")
        yield g, [rng.randint(0, 3) for _ in range(g.n)], coll, config


class TestContainerPricing:
    def test_clique_cover_bound_is_an_upper_bound(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            mask = rng.randrange(1 << n)
            best = max(
                sum(weights[v] for v in VertexSet(i))
                for i in all_independent_sets(g)
                if not i & ~mask
            )
            assert _clique_cover_bound(g, weights, mask) >= best

    def test_clique_cover_bound_is_exact_on_independent_masks(self):
        rng = random.Random(72)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            for i in all_independent_sets(g):
                assert _clique_cover_bound(g, weights, i) == sum(weights[v] for v in VertexSet(i))

    def test_priced_search_keeps_base_answer_under_ties(self):
        for g, weights, _, config in _priced_cases(73, 40):
            c = mis_containers(g, config, weights)
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)

    def test_pricing_never_adds_nodes_to_the_unpriced_loop(self):
        # the loop before pricing: every maximal container in maximal_masks
        # order, one incumbent carried across, started from a greedy set
        skipped = 0
        for g, weights, coll, config in _priced_cases(74, 30):
            best = _greedy_seed(g, weights, (1 << g.n) - 1)
            unpriced = 0
            for container in maximal_masks(x.mask for x in coll.containers):
                r = mis_base(g, weights, within=container, incumbent=best)
                unpriced += r.stats["nodes"]
                best = r.best.mask
            c = mis_containers(g, config, weights)
            assert c.best.mask == best
            assert c.stats["nodes"] <= unpriced
            assert c.stats["searched"] <= c.stats["containers"]
            skipped += c.stats["searched"] < c.stats["containers"]
        assert skipped > 0

    def test_tie_test_skips_only_containers_without_an_earlier_tie(self):
        # B is what a search confined to a random mask returns, on every
        # third trial the whole graph's answer; when the test says skip, no
        # independent subset of the container ties B and sorts before it
        rng = random.Random(75)
        skipped = needed = 0
        for trial in range(400):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            isets = all_independent_sets(g)

            def key(m):
                return -sum(weights[v] for v in VertexSet(m)), tuple(VertexSet(m))

            within = (1 << n) - 1 if trial % 3 == 0 else rng.getrandbits(n)
            best = min((m for m in isets if not m & ~within), key=key)
            for _ in range(8):
                container = rng.getrandbits(n)
                earlier = [
                    m for m in isets
                    if not m & ~container and key(m)[0] == key(best)[0] and key(m) < key(best)
                ]
                if not _may_hold_earlier_tie(g, weights, container, best, -key(best)[0]):
                    assert not earlier
                    skipped += 1
                needed += bool(earlier)
        assert skipped > 0 and needed > 0

    def test_highest_priced_container_seeds_the_incumbent(self):
        # the answer comes out of a container search even where every other
        # container is cut or tie-skipped, as on these 4-regular n = 10
        # graphs whose greedy set over V is already optimal
        rng = random.Random(77)
        only_seed = 0
        for _ in range(40):
            g = random_regular_graph(10, 4, rng.randrange(10**6))
            coll = build_regular_collection(g, 0.45, force=True)
            maximal = maximal_masks(x.mask for x in coll.containers)
            c = mis_containers(g, MisConfig(mode="containers", epsilon=0.45, force=True))
            assert c.best == mis_base(g).best
            assert c.stats["searched"] >= 1
            assert any(not c.best.mask & ~m for m in maximal)
            only_seed += c.stats["searched"] == 1 and c.stats["tie_skipped"] > 0
        assert only_seed > 0

    def test_tie_test_searches_a_prefix_whose_rest_weighs_zero(self):
        # B = (0, 2) with w(2) = 0 ties its prefix (0,), which sorts first;
        # the container holds only the prefix, so b2 outside it must not end
        # the test before the zero-weight rest is seen
        g = Graph(3, [(0, 1)])
        assert _may_hold_earlier_tie(g, [1, 1, 0], 0b001, 0b101, 1)
        assert not _may_hold_earlier_tie(g, [1, 1, 1], 0b001, 0b101, 2)

    def test_tie_test_cuts_searches_on_dense_regular_graphs(self):
        # the walk cuts subtrees, and every kept container whose bound
        # reaches the final weight is searched, skipped by the tie test or
        # skipped inside a searched one; the tie test skips some (the walk's
        # own tie test leaves none to skip on some graphs)
        rng = random.Random(76)
        tie_skipped = 0
        for _ in range(4):
            g = random_regular_graph(18, 8, rng.randrange(10**6))
            coll = build_regular_collection(g, 0.45, force=True)
            config = MisConfig(mode="containers", epsilon=0.45, force=True)
            c, kept = _solve_and_capture(g, config)
            assert c.best == mis_base(g).best
            assert {x.mask for x in kept.containers} <= {x.mask for x in coll.containers}
            reach = sum(
                _clique_cover_bound(g, [1] * g.n, x.mask) >= c.weight for x in kept.containers
            )
            # the first is searched even when S outweighs every bound
            skipped = c.stats["tie_skipped"] + c.stats["subsumed"]
            assert c.stats["searched"] + skipped == max(reach, 1)
            assert c.stats["cut"] > 0
            tie_skipped += c.stats["tie_skipped"]
        assert tie_skipped > 0


class TestCutWalk:
    def test_answer_matches_brute_force(self):
        # weights 0-3 make zero weights and equal-weight optima common, so the
        # walk's own tie test decides many cuts
        rng = random.Random(78)
        for trial in range(160):
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (10, 6), (12, 6), (12, 8)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=rng.choice([0.25, 0.45]), force=True)
            else:
                n, p = rng.randint(2, 12), rng.choice([0.2, 0.4, 0.6])
                g = random_graph(n, p, rng.randrange(10**6))
                config = MisConfig(mode="containers")
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c = mis_containers(g, config, weights)
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)

    def test_cut_walk_past_the_budget_raises_tau(self, monkeypatch):
        # a budget below the cut walk (so below the uncut one) makes the
        # driver raise tau while the walk is cut, and the answer stays exact
        rng = random.Random(79)
        default = containers.CANDIDATE_BUDGET
        raised = 0
        for trial in range(12):
            if trial % 2 == 0:
                g = random_regular_graph(12, 6, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=0.45, force=True)
            else:
                g = random_graph(12, 0.4, rng.randrange(10**6))
                config = MisConfig(mode="containers")
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            monkeypatch.setattr(containers, "CANDIDATE_BUDGET", default)
            _, kept = _solve_and_capture(g, config, weights)
            if kept.stats["candidate_count"] < 2:
                continue
            monkeypatch.setattr(containers, "CANDIDATE_BUDGET", kept.stats["candidate_count"] - 1)
            c, cut = _solve_and_capture(g, config, weights)
            assert cut.stats["tau"] > kept.stats["tau"]
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)
            raised += 1
        assert raised >= 8
