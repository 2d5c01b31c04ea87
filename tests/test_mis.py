import math
import random
from functools import partial
from itertools import product

import pytest

from contsolve import containers, mis
from contsolve.core import (
    Graph,
    Hypergraph,
    ParameterError,
    SizeLimitError,
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
    _earlier_tie_test,
    _greedy_seed,
    mis_base,
    mis_containers,
)
from oracles import (
    all_independent_sets,
    greedy_seed_by_key,
    hypergraph_container,
    hypergraph_fingerprint,
    max_independent_set_size,
    max_weight_independent_set,
    scan_passed,
)

MIS_AUTO_PATH = "base (auto: no measured rule picks the container path yet)"


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
        # no weight at all is none below 0
        assert mis_base(Graph(0, []), []).size == 0

    def test_greedy_seed_is_the_keyed_greedy(self):
        # the seed picks by the reference's (degree, -weight, id) key, one
        # vertex at a time, and takes the same set when it takes every
        # isolated vertex at the scan that finds it
        rng = random.Random(52)
        isolated = 0
        for _ in range(2400):
            n = rng.randint(0, 16)
            g = random_graph(n, rng.uniform(0.05, 0.8), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            alive = rng.getrandbits(n) if rng.random() < 0.75 else (1 << n) - 1
            assert _greedy_seed(g, weights, alive) == greedy_seed_by_key(g, weights, alive)
            isolated += any(alive >> v & 1 and not g.adj_mask[v] & alive for v in range(n))
        assert isolated > 1000

    def test_greedy_seed_on_2500_vertices_and_one_edge(self):
        # on 2,500 vertices with one edge, vertex 0 is the only pick, beside
        # the 2,498 isolated vertices, so the seed is the set without 1
        g = Graph(2500, [(0, 1)])
        seed = _greedy_seed(g, [1] * g.n, (1 << g.n) - 1)
        assert seed.bit_count() == 2499 and seed == (1 << g.n) - 1 - 0b10

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

    def test_the_include_branch_is_searched_first(self):
        # each node pushes its exclude branch, then its include branch; the
        # order changes no answer, only the node counts that perfbench and
        # the container path report: excluding first takes 5,464 here
        rng = random.Random(91)
        total = 0
        for trial in range(60):
            n = rng.randint(8, 18)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [1] * n if trial % 2 else [rng.randint(0, 3) for _ in range(n)]
            total += mis_base(g, weights).stats["nodes"]
        assert total == 4650

    def test_a_search_deeper_than_the_recursion_limit_answers(self):
        # on 1,200 vertices with one edge the search on V, which auto mode
        # runs, is about 1,200 branches deep, past the interpreter's default
        # recursion limit of 1,000; it runs on an explicit stack and answers,
        # as does the container path, with the set that leaves out vertex 1
        g = Graph(1200, [(0, 1)])
        want = (1 << 1200) - 1 - 0b10
        for call in (
            partial(mis_base, g),
            partial(mis_containers, g),
            partial(mis_containers, g, MisConfig(mode="containers")),
        ):
            r = call()
            assert r.size == r.weight == 1199 and r.best.mask == want

    def test_forced_matches_brute_force(self):
        # the best, by weight then smallest sorted tuple, of the incumbent and
        # the independent subsets of `within` that hold `forced`; with no
        # incumbent the greedy seed holds `forced` too, so it is the best of
        # those subsets alone, ties included
        rng = random.Random(59)
        forced_seen = 0
        for trial in range(300):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [1] * n if trial % 2 else [rng.randint(0, 3) for _ in range(n)]
            within = rng.getrandbits(n)
            isets = all_independent_sets(g)
            forced = rng.choice([m for m in isets if not m & ~within]) & rng.getrandbits(n)
            incumbent = None if trial % 3 else rng.choice(isets)
            pool = [m for m in isets if not m & ~within and not forced & ~m]
            if incumbent is not None:
                pool.append(incumbent)

            def key(m):
                return -sum(weights[v] for v in VertexSet(m)), tuple(VertexSet(m))

            expected = min(pool, key=key)
            r = mis_base(g, weights, within=within, incumbent=incumbent, forced=forced)
            assert r.best.mask == expected
            assert r.weight == -key(expected)[0] and r.size == expected.bit_count()
            forced_seen += forced != 0
        assert forced_seen > 100

    def test_rejects_a_dependent_forced_set_or_one_outside_within(self):
        g = cycle_graph(4)
        for kwargs in (
            {"forced": 0b11},
            {"forced": 0b101, "within": 0b011},
            {"forced": 1 << 4},
            {"forced": -1},
        ):
            with pytest.raises(ParameterError, match="forced"):
                mis_base(g, **kwargs)

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

        monkeypatch.setattr(mis, "build_hypergraph_collection", no_build)
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
    return _solve_and_trace(g, config, weights)[:2]


def _solve_and_trace(g, config, weights=None):
    """mis_containers' result, the cut collection its walk built, and the
    searches it ran during the walk and after it, in order, each as
    (container, forced F)."""
    return _trace(g, config, weights)[:4]


def _solve_and_ask(g, config, weights):
    """mis_containers' result, the cut collection its walk built, and every
    ask of its `keep`, in order, as (F, reach, container, answer)."""
    c, built, _, _, asks = _trace(g, config, weights)
    return c, built, asks


def _trace(g, config, weights):
    """mis_containers' result, the cut collection its walk built, the
    searches during the walk and after it, and the asks of its `keep`."""
    built, during, after, asks = [], [], [], []
    with pytest.MonkeyPatch.context() as mp:

        def search(*args, _real=mis.mis_base, **kwargs):
            (after if built else during).append((kwargs["within"], kwargs["forced"]))
            return _real(*args, **kwargs)

        mp.setattr(mis, "mis_base", search)

        def capture(*args, keep, _real=mis.build_hypergraph_collection, **kwargs):
            def asked(*ask):
                asks.append((*ask, keep(*ask)))
                return asks[-1][-1]

            built.append(_real(*args, keep=asked, **kwargs))
            return built[-1]

        mp.setattr(mis, "build_hypergraph_collection", capture)
        return mis_containers(g, config, weights), built[0], during, after, asks


def _container_price(g, weights, mask):
    """The price mis_containers gives a container: the lower of its two
    greedy clique covers."""
    return min(_clique_cover_bound(g, weights, mask), _clique_cover_bound(g, weights, mask, highest=True))


def _tie_walk(g, weights, container, best, best_w):
    """The tie test as one bit walk along the incumbent B = b1 < ... < bk
    per ask: the reference `_earlier_tie_test` is checked against. A
    zero-weight rest says yes, a vertex of the container between b(i-1) and
    b(i) adjacent to none of b1..b(i-1) says yes, b(i) outside it says no."""
    rest_w, passed, blocked = best_w, 0, 0
    while best:
        if rest_w == 0:
            return True
        low = best & -best
        best ^= low
        if container & (low - 1) & ~(passed | blocked):
            return True
        if not container & low:
            return False
        v = low.bit_length() - 1
        passed |= (low << 1) - 1
        blocked |= g.adj_mask[v]
        rest_w -= weights[v]
    return False


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
        # both covers, lowest-first and mirrored, against brute force
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
            assert _clique_cover_bound(g, weights, mask, highest=True) >= best

    def test_clique_cover_bound_is_exact_on_independent_masks(self):
        rng = random.Random(72)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            for i in all_independent_sets(g):
                weight = sum(weights[v] for v in VertexSet(i))
                assert _clique_cover_bound(g, weights, i) == weight
                assert _clique_cover_bound(g, weights, i, highest=True) == weight

    def test_priced_search_keeps_base_answer_under_ties(self):
        for g, weights, _, config in _priced_cases(73, 40):
            c = mis_containers(g, config, weights)
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)

    def test_pricing_never_adds_nodes_to_the_unpriced_loop(self):
        # the loop before pricing: every maximal container in maximal_masks
        # order, one incumbent carried across, started from a greedy set.
        # Pricing takes fewer B&B nodes in total, though not on every graph:
        # the walk searches other containers than the loop, in another
        # order, from other incumbents
        skipped = priced = unpriced = 0
        cases = [*_priced_cases(74, 30), *_priced_cases(174, 200), *_priced_cases(274, 200)]
        for g, weights, coll, config in cases:
            best = _greedy_seed(g, weights, (1 << g.n) - 1)
            for container in maximal_masks(x.mask for x in coll.containers):
                r = mis_base(g, weights, within=container, incumbent=best)
                unpriced += r.stats["nodes"]
                best = r.best.mask
            c = mis_containers(g, config, weights)
            assert c.best.mask == best
            priced += c.stats["nodes"]
            assert c.stats["searched"] <= c.stats["containers"]
            skipped += c.stats["searched"] < c.stats["containers"]
        assert priced <= unpriced
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
            may_tie = _earlier_tie_test(g, weights, best, -key(best)[0])
            for _ in range(8):
                container = rng.getrandbits(n)
                earlier = [
                    m for m in isets
                    if not m & ~container and key(m)[0] == key(best)[0] and key(m) < key(best)
                ]
                if not may_tie(container):
                    assert not earlier
                    skipped += 1
                needed += bool(earlier)
        assert skipped > 0 and needed > 0

    def test_smallest_container_is_searched_after_a_walk_that_searched_nothing(self):
        # the answer comes out of a container search even where the walk
        # searches nothing, as on these 4-regular n = 10 and 6-regular
        # n = 12 graphs whose greedy set S over V is already optimal: every
        # kept container is then priced out, so any search returns S, and
        # the one search after the walk is of the smallest kept container
        rng = random.Random(77)
        only_seed = several_kept = 0
        for n, d in [(10, 4)] * 40 + [(12, 6)] * 40 + [(16, 8)] * 300:
            g = random_regular_graph(n, d, rng.randrange(10**6))
            coll = build_regular_collection(g, 0.45, force=True)
            maximal = maximal_masks(x.mask for x in coll.containers)
            config = MisConfig(mode="containers", epsilon=0.45, force=True)
            c, kept, during, after = _solve_and_trace(g, config)
            assert c.best == mis_base(g).best
            assert c.stats["searched"] == len(during) + len(after) >= 1
            assert any(not c.best.mask & ~m for m in maximal)
            if during:
                assert after == []
                continue
            assert after == [(kept.containers[0].mask, 0)]
            assert c.best.mask == _greedy_seed(g, [1] * g.n, (1 << g.n) - 1)
            only_seed += 1
            several_kept += len(kept.containers) > 1
        assert only_seed > 0 and several_kept > 0

    def test_tie_test_searches_a_prefix_whose_rest_weighs_zero(self):
        # B = (0, 2) with w(2) = 0 ties its prefix (0,), which sorts first;
        # the container holds only the prefix, so b2 outside it must not end
        # the test before the zero-weight rest is seen
        g = Graph(3, [(0, 1)])
        assert _earlier_tie_test(g, [1, 1, 0], 0b101, 1)(0b001)
        assert not _earlier_tie_test(g, [1, 1, 1], 0b101, 2)(0b001)

    def test_tie_test_built_once_answers_as_the_bit_walk(self):
        # the steps built from the incumbent answer every mask as the walk
        # along B per ask does; B often ends in vertices of weight 0, and a
        # mask holding B up to them but not all of them holds a tying prefix
        # that sorts first, so it must be answered yes
        rng = random.Random(81)
        zero_rest = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10**6))
            weights = [rng.randint(0, 3) for _ in range(n)]
            isets = all_independent_sets(g)
            for best in rng.sample(isets, min(4, len(isets))):
                best_w = sum(weights[v] for v in VertexSet(best))
                may_tie = _earlier_tie_test(g, weights, best, best_w)
                top = max((v for v in VertexSet(best) if weights[v]), default=-1)
                head = best & ((1 << (top + 1)) - 1)  # B up to its last positive weight
                for mask in [0, head, best, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(12))]:
                    said = may_tie(mask)
                    assert said == _tie_walk(g, weights, mask, best, best_w)
                    if not head & ~mask and best & ~mask:
                        assert said
                        zero_rest += 1
        assert zero_rest > 100

    def test_tie_test_cuts_searches_on_dense_regular_graphs(self, monkeypatch):
        # the walk cuts subtrees and searches each kept container it hands
        # over, minus S(F) and with its F forced, so after it only a walk
        # that searched nothing searches, once; no search of (C, F) follows
        # one of (C', F') with C inside C' and F' inside F; a container
        # asked about and left unsearched is priced (the lower of its two
        # covers) below the answer's weight, or priced at it and refused by
        # the tie test, and so is each reach that cut a subtree, by its one
        # cover; the tie test refuses some
        said_no = []
        real = mis._earlier_tie_test

        def built(*args):
            may_tie = real(*args)
            return lambda mask: may_tie(mask) or said_no.append(mask)

        monkeypatch.setattr(mis, "_earlier_tie_test", built)
        rng = random.Random(76)
        walk_searched = tie_refused = 0
        for _ in range(4):
            said_no.clear()
            g = random_regular_graph(18, 8, rng.randrange(10**6))
            h = Hypergraph(g.n, 2, g.edges)
            coll = build_regular_collection(g, 0.45, force=True)
            config = MisConfig(mode="containers", epsilon=0.45, force=True)
            c, kept, during, after, asks = _trace(g, config, None)
            assert c.best == mis_base(g).best
            kept_masks = {x.mask for x in kept.containers}
            assert kept_masks <= {x.mask for x in coll.containers}
            tau = kept.stats["tau"]
            for mask, f in during:
                container = hypergraph_container(h, VertexSet(f), tau).mask
                assert container in kept_masks and mask == container & ~scan_passed(h, f, tau)
            assert len(after) == (0 if during else 1)
            searched = during + after
            assert c.stats["searched"] == len(searched)
            for i, (mask, f) in enumerate(searched):
                assert all(mask & ~done or done_f & ~f for done, done_f in searched[:i])
            refused = set(said_no)
            for f, mask, container, answer in asks:
                if container and all(mask & ~done or done_f & ~f for done, done_f in searched):
                    bound = _container_price(g, [1] * g.n, mask)
                elif not container and not answer:
                    # a cut subtree: its reach is priced by the first cover
                    bound = _clique_cover_bound(g, [1] * g.n, mask)
                else:
                    continue
                assert bound < c.weight or (bound == c.weight and mask in refused)
                tie_refused += bound == c.weight
            assert c.stats["cut"] > 0
            walk_searched += len(during)
        assert tie_refused > 0 and walk_searched > 0


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

    def test_leaves_searched_in_the_walk_match_brute_force(self):
        # searching kept leaves during the walk, at a rising incumbent, keeps
        # the answer and its tie break; every mask searched in the walk is a
        # container the uncut walk lists minus its F's S(F), and the
        # counters add up
        rng = random.Random(80)
        checked = walk_searched = 0
        for trial in range(240):
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6), (14, 6), (14, 8), (10, 6)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                eps = rng.choice([0.25, 0.45])
                config = MisConfig(mode="containers", epsilon=eps, force=True)
                uncut = partial(build_regular_collection, g, eps, force=True)
            else:
                n, p = rng.randint(3, 14), rng.choice([0.2, 0.35, 0.5, 0.7])
                g = random_graph(n, p, rng.randrange(10**6))
                config = MisConfig(mode="containers")
                uncut = partial(build_almost_regular_collection, g)
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c, kept, during, after = _solve_and_trace(g, config, weights)
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)
            tau, containers = kept.stats["tau"], {x.mask for x in uncut().containers}
            for mask, f in during:
                container = hypergraph_container(g, VertexSet(f), tau).mask
                assert container in containers and mask == container & ~scan_passed(g, f, tau)
            assert c.stats["searched"] == len(during) + len(after)
            assert c.stats["walked"] == kept.stats["candidate_count"]
            assert c.stats["cut"] == kept.stats.get("cut", 0)
            checked += 1
            walk_searched += len(during)
        assert checked >= 200 and walk_searched > 100

    def test_each_container_is_asked_once_after_its_subtree(self):
        # against the fixed points of a brute-force fingerprint scan at the
        # walk's tau: the root and every fixed point kept at its first ask
        # are asked about their own container (the oracle's) minus S(F),
        # each once and after every ask about a fixed point below it; every
        # fixed point left unasked lies below one rejected at its first ask
        rng = random.Random(84)
        checked = inner = 0
        for trial in range(220):
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6), (14, 6), (10, 6)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=rng.choice([0.25, 0.45]), force=True)
            else:
                g = random_graph(rng.randint(3, 14), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c, coll, asks = _solve_and_ask(g, config, weights)
            assert c.best == mis_base(g, weights).best
            assert c.weight == max_weight_independent_set(g, weights)
            tau = coll.stats["tau"]
            h = Hypergraph(g.n, 2, g.edges)
            fixed = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in all_independent_sets(g)}
            owned = [f for f, _, container, _ in asks if container]
            kept = {0} | {f for f, _, container, answer in asks if not container and answer}
            rejected = {f for f, _, container, answer in asks if not container and not answer}
            assert len(owned) == len(set(owned)) and set(owned) == kept and kept | rejected <= fixed
            assert asks[-1][0] == 0 and asks[-1][2]
            for i, (f, reach, container, _) in enumerate(asks):
                if not container:
                    continue
                assert reach == hypergraph_container(h, VertexSet(f), tau).mask & ~scan_passed(h, f, tau)
                prefix = (1 << f.bit_length()) - 1
                assert all(j < i for j, (b, *_) in enumerate(asks) if b != f and b & prefix == f)
                inner += any(b != f and b & prefix == f for b, *_ in asks) and f != 0
            for f in fixed - kept - rejected:
                prefixes = {f & ((1 << v) - 1) for v in range(f.bit_length())}
                assert prefixes & rejected
            checked += 1
        assert checked >= 200 and inner > 100

    def test_a_leafs_container_ask_repeats_its_reach_ask(self):
        # keep reuses its last lowest-first price, which holds because a
        # leaf (a fixed point with no fixed-point child above max F) has its
        # heavy set inside S(F): its container ask comes right after the
        # reach ask that kept it, about the same F and the same mask
        rng = random.Random(88)
        leaves = 0
        for trial in range(300):
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6), (14, 6), (10, 6)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=rng.choice([0.25, 0.45]), force=True)
            else:
                g = random_graph(rng.randint(3, 14), rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c, coll, asks = _solve_and_ask(g, config, weights)
            assert c.best == mis_base(g, weights).best
            h = Hypergraph(g.n, 2, g.edges)
            tau = coll.stats["tau"]
            fixed = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in all_independent_sets(g)}
            for i, (f, reach, container, _) in enumerate(asks):
                if not container or not f or any(f | 1 << v in fixed for v in range(f.bit_length(), g.n)):
                    continue
                assert asks[i - 1] == (f, reach, False, True)
                leaves += 1
        assert leaves > 150

    def test_covers_counts_every_clique_cover(self, monkeypatch):
        # stats["covers"] is the number of clique covers keep computed,
        # lowest-first and mirrored alike
        rng = random.Random(90)
        calls = []
        real = mis._clique_cover_bound

        def counted(*args, **kwargs):
            calls.append(kwargs.get("highest", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(mis, "_clique_cover_bound", counted)
        mirrored = 0
        for trial in range(60):
            if trial % 2 == 0:
                g = random_regular_graph(14, 6, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=0.45, force=True)
            else:
                g = random_graph(rng.randint(6, 14), rng.choice([0.3, 0.5]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            calls.clear()
            c = mis_containers(g, config, [rng.randint(0, 3) for _ in range(g.n)])
            assert c.stats["covers"] == len(calls)
            mirrored += sum(calls)
        assert mirrored > 0

    def test_siblings_are_asked_lowest_first_after_the_lower_subtrees(self):
        # the asks are a brute-force walk's over the fixed points of a
        # fingerprint scan at the walk's tau, answered as the walk's own
        # were: F's children, in increasing vertex order, are each asked
        # about V minus their exclusions and S(F), and a kept one has its
        # subtree walked and is asked about its container minus S(F) before
        # its next sibling is asked anything; the root is asked about its
        # container last
        rng = random.Random(86)
        checked = nested = 0
        for trial in range(160):
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6), (14, 6), (10, 6)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=rng.choice([0.25, 0.45]))
            else:
                g = random_graph(rng.randint(3, 14), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)] if trial % 4 < 2 else None
            c, coll, asks = _solve_and_ask(g, config, weights)
            assert c.best == mis_base(g, weights).best
            tau, full = coll.stats["tau"], (1 << g.n) - 1
            h = Hypergraph(g.n, 2, g.edges)
            fixed = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in all_independent_sets(g)}
            answer = {(f, container): said for f, _, container, said in asks}
            want = []

            def walk(f):
                # the number of siblings asked after a lower one's subtree
                # held asks of its own
                after_subtree = 0
                deep = False
                for v in range(f.bit_length(), g.n):
                    child = f | 1 << v
                    if child not in fixed:
                        continue
                    after_subtree += deep
                    excluded = 0
                    for u in VertexSet(child):
                        excluded |= g.adj_mask[u]
                    passed = scan_passed(h, child, tau)
                    want.append((child, full & ~(excluded | passed), False))
                    if answer[child, False]:
                        before = len(want)
                        after_subtree += walk(child)
                        deep = deep or len(want) > before
                        container = hypergraph_container(h, VertexSet(child), tau).mask
                        want.append((child, container & ~passed, True))
                return after_subtree

            nested += walk(0)
            want.append((0, hypergraph_container(h, VertexSet(0), tau).mask, True))
            assert [ask[:3] for ask in asks] == want
            checked += 1
        assert checked >= 140 and nested > 100

    def test_each_fingerprint_is_handed_over_once_after_its_descendants(self):
        # the walk order that makes a log of searches needless: on the uncut
        # walk (a keep that records every ask and passes it) and on the MIS
        # keep's cut walk, each fingerprint walked is handed over (asked
        # about its container) once, after every fingerprint walked below
        # it, and no hand-over (C, F) follows one (C', F') with F' inside F,
        # let alone with C inside C' too, so no search repeats one that saw
        # all its sets. Popping the highest child first breaks the first
        # rule: {w} is handed over before a fingerprint {u, w}, u < w
        rng = random.Random(91)
        checked = nested = 0
        for trial in range(160):
            eps = rng.choice([0.25, 0.45])
            if trial % 2 == 0:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6), (14, 6), (14, 8)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
            else:
                g = random_graph(rng.randint(3, 14), rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c, coll, asks = _solve_and_ask(g, MisConfig(mode="containers", epsilon=eps), weights)
            assert c.best == mis_base(g, weights).best
            passed = {0} | {f for f, _, container, said in asks if not container and said}
            assert len(passed) == coll.stats["candidate_count"]
            recorded = []
            p = min(1.0, 1.0 / (eps * g.average_degree))
            uncut = containers.build_hypergraph_collection(g, p, keep=lambda *ask: recorded.append(ask) or True)
            tau = uncut.stats["tau"]
            assert tau == coll.stats["tau"]
            h = Hypergraph(g.n, 2, g.edges)
            fixed = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in all_independent_sets(g)}
            for walked, trace in ((passed, asks), (fixed, recorded)):
                order = [f for f, _, container, *_ in trace if container]
                assert sorted(order) == sorted(walked)
                for i, f in enumerate(order):
                    prefix = (1 << f.bit_length()) - 1
                    below = [j for j, b in enumerate(order) if b != f and b & prefix == f]
                    assert all(j < i for j in below)
                    assert all(done_f & ~f for done_f in order[:i])
                    nested += bool(below)
            checked += 1
        assert checked >= 140 and nested > 1500

    def test_a_container_held_only_under_another_fingerprint_is_searched(self):
        # a search of (C', F') sees only the sets of C' that hold F', so a
        # later container C inside C' is still searched when its F does not
        # hold F': C has independent sets that hold F and miss F', which the
        # earlier search never saw. No search of the walk follows one whose
        # F' lies in its F, so none repeats an earlier one, and the answer is
        # the base path's
        rng = random.Random(89)
        searched_again = 0
        for trial in range(200):
            if trial % 2 == 0:
                n, d = rng.choice([(10, 4), (12, 4), (12, 6), (14, 6), (14, 8)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=rng.choice([0.25, 0.45]))
            else:
                g = random_graph(rng.randint(6, 14), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            c, _, during, _ = _solve_and_trace(g, config, weights)
            assert c.best == mis_base(g, weights).best
            isets = all_independent_sets(g)
            for i, (mask, f) in enumerate(during):
                holders = [done_f for done, done_f in during[:i] if not mask & ~done]
                assert all(done_f & ~f for done_f in holders)
                for done_f in holders:
                    assert any(not m & ~mask and not f & ~m and done_f & ~m for m in isets)
                    searched_again += 1
        assert searched_again > 4

    def test_the_weight_cap_answers_as_the_cover_rule_and_tie_test(self, monkeypatch):
        # keep says no before pricing when |reach| times the heaviest weight
        # is below the incumbent's weight; at every ask its answer is the
        # price's and the tie test's against the incumbent of that moment:
        # the greedy set over V, then each search's answer. A reach is priced
        # by the lowest-first cover, a container by the lower of its two
        # covers, so the mirrored one alone prices some containers out
        rng = random.Random(87)
        state = {}
        real_base, real_build = mis.mis_base, mis.build_hypergraph_collection

        def search(*args, **kwargs):
            r = real_base(*args, **kwargs)
            state["best"] = r.best.mask
            return r

        def build(*args, keep, **kwargs):
            def checked(f, reach, container):
                g, weights, best = state["g"], state["weights"], state["best"]
                best_w = sum(weights[v] for v in VertexSet(best))
                may_tie = _earlier_tie_test(g, weights, best, best_w)

                def passes(bound):
                    return bound > best_w or (bound == best_w and may_tie(reach))

                low = _clique_cover_bound(g, weights, reach)
                said = keep(f, reach, container)
                assert said == passes(_container_price(g, weights, reach) if container else low)
                state["capped"] += reach.bit_count() * max(weights) < best_w
                state["mirrored"] += container and passes(low) and not said
                state["asks"] += 1
                return said

            return real_build(*args, keep=checked, **kwargs)

        monkeypatch.setattr(mis, "mis_base", search)
        monkeypatch.setattr(mis, "build_hypergraph_collection", build)
        state.update(capped=0, asks=0, mirrored=0)
        for trial in range(120):
            if trial % 2 == 0:
                n, d = rng.choice([(10, 4), (12, 6), (14, 6), (16, 8), (18, 8)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                config = MisConfig(mode="containers", epsilon=0.45)
            else:
                g = random_graph(rng.randint(6, 16), rng.choice([0.3, 0.5]), rng.randrange(10**6))
                config = MisConfig(mode="containers")
            if g.m == 0:
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)] if trial % 4 < 2 else [1] * g.n
            state.update(g=g, weights=weights, best=_greedy_seed(g, weights, (1 << g.n) - 1))
            c = mis_containers(g, config, weights)
            assert c.best.mask == real_base(g, weights).best.mask
        assert state["capped"] > 200 and state["asks"] > state["capped"] and state["mirrored"] > 0

    def test_epsilon_sets_the_threshold_on_non_regular_graphs(self):
        # epsilon reaches every graph's walk, at tau = ceil(epsilon * average
        # degree), and the answer is exact at each
        rng = random.Random(85)
        taus = set()
        checked = 0
        for _ in range(60):
            g = random_graph(rng.randint(4, 14), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
            if g.m == 0 or g.is_regular():
                continue
            weights = [rng.randint(0, 3) for _ in range(g.n)]
            want = mis_base(g, weights)
            for eps in (0.1, 0.25, 0.45):
                c, coll = _solve_and_capture(g, MisConfig(mode="containers", epsilon=eps), weights)
                assert c.best == want.best
                assert c.weight == max_weight_independent_set(g, weights)
                taus.add((g.average_degree, eps, coll.stats["tau"]))
            checked += 1
        assert checked > 40
        # where the walk fits the budget, its tau is the scheme's
        assert all(tau == max(1, math.ceil(round(eps * avg, 9))) for avg, eps, tau in taus)
        assert len({tau for *_, tau in taus}) > 2

    def test_a_search_refused_in_the_walk_ends_the_build(self, monkeypatch):
        # min-degree greedy misses this 9-vertex graph's optimum by one, so
        # the walk searches a container; a SizeLimitError from that search
        # ends the build at the first walk, where the walk's own budget
        # error would make the driver raise tau and walk again
        edges = [(0, 5), (0, 7), (0, 8), (1, 3), (1, 6), (1, 7), (1, 8), (2, 4)]
        edges += [(3, 4), (3, 6), (3, 8), (4, 7), (5, 6), (5, 8), (6, 7), (7, 8)]
        g = Graph(9, edges)
        assert _greedy_seed(g, [1] * 9, (1 << 9) - 1).bit_count() < mis_base(g).size
        walks = []
        real = containers._walked_containers

        def walk(*args):
            walks.append(args[1])
            assert len(walks) == 1, "the driver walked again after a refused search"
            return real(*args)

        def refused_search(*args, **kwargs):
            raise SizeLimitError("search", "refused")

        monkeypatch.setattr(containers, "_walked_containers", walk)
        monkeypatch.setattr(mis, "mis_base", refused_search)
        with pytest.raises(SizeLimitError) as refused:
            mis_containers(g, MisConfig(mode="containers"))
        assert refused.value.stage == "search" and len(walks) == 1

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
