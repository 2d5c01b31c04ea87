import random
from itertools import combinations

import pytest

from contsolve.containers import (
    CodegreeConditionError,
    ContainerParams,
    HypergraphContainerParams,
    boundary_set,
    build_almost_regular_collection,
    build_hypergraph_collection,
    build_regular_collection,
    check_codegree_conditions,
    container_of,
    container_sparsity,
    fingerprint,
    graph_as_hypergraph,
    hypergraph_container,
    hypergraph_fingerprint,
    maximal_masks,
)
from contsolve.containers import _fixed_points
from contsolve.core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
    VertexSet,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
    random_regular_graph,
)
from oracles import all_independent_sets, hypergraph_independent_sets

EPS = 0.49  # close to the top of the valid range; keeps thresholds at ~d/2


class TestFingerprint:
    def test_c4_hand_example(self):
        g = cycle_graph(4)
        p = ContainerParams(epsilon=0.5 - 1e-12, d=2.0)
        f = fingerprint(g, VertexSet.of([0, 2]), p)
        assert f.to_list() == [0]

    def test_empty_set(self):
        g = cycle_graph(4)
        p = ContainerParams(epsilon=0.25, d=2.0)
        assert fingerprint(g, VertexSet(0), p).mask == 0

    def test_k2_single_vertex(self):
        g = complete_graph(2)
        p = ContainerParams(epsilon=0.5 - 1e-12, d=1.0)
        assert fingerprint(g, VertexSet.of([0]), p).to_list() == [0]

    def test_rejects_dependent_set(self):
        g = complete_graph(3)
        p = ContainerParams(epsilon=0.25, d=2.0)
        with pytest.raises(PreconditionError):
            fingerprint(g, VertexSet.of([0, 1]), p)

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ParameterError):
                ContainerParams(epsilon=bad, d=3.0)


class TestContainerOf:
    def test_c4_hand_example(self):
        g = cycle_graph(4)
        p = ContainerParams(epsilon=0.5 - 1e-12, d=2.0)
        assert container_of(g, VertexSet.of([0]), p).to_list() == [0, 2]

    def test_empty_fingerprint(self):
        g = cycle_graph(4)
        p = ContainerParams(epsilon=0.25, d=2.0)
        assert container_of(g, VertexSet(0), p).mask == 0

    def test_k2(self):
        g = complete_graph(2)
        p = ContainerParams(epsilon=0.5 - 1e-12, d=1.0)
        assert container_of(g, VertexSet.of([0]), p).to_list() == [0]


def _coverage_instances():
    graphs = [complete_graph(n) for n in (4, 5, 6)]
    graphs += [cycle_graph(n) for n in (5, 8, 12)]
    graphs.append(petersen_graph())
    rng = random.Random(7)
    for _ in range(8):
        d = rng.choice([3, 4, 6])
        n = rng.choice([10, 12, 14])
        if n * d % 2:
            n += 1
        graphs.append(random_regular_graph(n, d, rng.randrange(10**6)))
    return graphs


class TestRegularCollection:
    def test_low_degree_flag(self):
        # d = 3 <= 2/eps^2 = 32 at eps = 0.25
        coll = build_regular_collection(complete_graph(4), 0.25)
        assert coll.low_degree and len(coll) == 0 and coll.locate is None
        assert coll.stats["vacuous"] is False

    def test_edgeless_rejected_as_low_degree(self):
        g = Graph(4, [])
        coll = build_regular_collection(g, 0.25)
        assert coll.low_degree
        assert coll.stats["vacuous"] is False

    def test_non_regular_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ParameterError, match="almost-regular"):
            build_regular_collection(g, 0.25)

    def test_c4_forced_covers_maximal_sets(self):
        g = cycle_graph(4)
        coll = build_regular_collection(g, EPS, force=True)
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0
            assert cont.mask in members

    def test_coverage_and_bounds(self):
        for g in _coverage_instances():
            d = g.degree(0)
            params = ContainerParams(epsilon=EPS, d=float(d))
            coll = build_regular_collection(g, EPS, force=True)
            members = {c.mask for c in coll.containers}
            size_bound = (1.0 / (2.0 - EPS) + params.q) * g.n
            for iset in all_independent_sets(g):
                ivs = VertexSet(iset)
                assert ivs.cardinality <= g.n / 2  # regular graphs only
                f = fingerprint(g, ivs, params)
                assert f.cardinality <= params.q * g.n
                cont = container_of(g, f, params)
                assert iset & ~cont.mask == 0
                assert cont.mask in members
                assert cont.cardinality <= size_bound + 1e-9

    def test_sparsity_bound(self):
        for g in _coverage_instances():
            d = g.degree(0)
            coll = build_regular_collection(g, EPS, force=True)
            for c in coll.containers:
                assert container_sparsity(g, c) <= EPS * d * g.n + 1e-9

    def test_deterministic_output(self):
        g = random_regular_graph(12, 4, 3)
        a = build_regular_collection(g, EPS, force=True)
        b = build_regular_collection(g, EPS, force=True)
        assert [c.mask for c in a.containers] == [c.mask for c in b.containers]


class TestMaximalMasks:
    def test_matches_brute_force(self):
        rng = random.Random(31)
        for trial in range(200):
            n = rng.randint(1, 7)
            full = (1 << n) - 1
            family = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
            family += rng.sample(family, min(3, len(family)))  # duplicates
            if trial % 4 == 0:
                family.append(full)
            kept = maximal_masks(family)
            # every input lies inside some output
            assert all(any(m & ~o == 0 for o in kept) for m in family)
            # outputs are pairwise incomparable, and each is an input
            assert all(a & ~b for a in kept for b in kept if a != b)
            assert len(set(kept)) == len(kept) and set(kept) <= set(family)
            assert kept == sorted(kept, key=lambda m: (-m.bit_count(), m))
            if full in family:
                assert kept == [full]

    def test_empty_family(self):
        assert maximal_masks([]) == []


class TestCodegreeConditions:
    def test_k4_as_two_uniform_passes(self):
        h = graph_as_hypergraph(complete_graph(4))
        report = check_codegree_conditions(h, HypergraphContainerParams(p=2 / 3, C=2.0, r=2))
        assert report.ok
        assert report.checks[0].delta == 3 and report.checks[0].bound == pytest.approx(3.0)
        assert report.checks[1].delta == 1 and report.checks[1].bound == pytest.approx(2.0)

    def test_single_triple_edge_fails_i1(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        report = check_codegree_conditions(h, HypergraphContainerParams(p=1.0, C=1.0, r=3))
        assert not report.ok
        assert not report.checks[0].ok  # delta_1 = 1 > 1/3

    def test_empty_fails_with_zero_density_note(self):
        h = Hypergraph(4, 2, [])
        report = check_codegree_conditions(h, HypergraphContainerParams(p=0.5, C=1.0, r=2))
        assert not report.ok and "zero" in report.note


def _random_hypergraph(n, r, m, seed):
    rng = random.Random(seed)
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    return Hypergraph(n, r, pool[:m])


class TestHypergraphEngine:
    def test_single_edge_coverage(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        params = HypergraphContainerParams(p=1.0, C=3.0, r=3)
        coll = build_hypergraph_collection(h, params)
        members = {c.mask for c in coll.containers}
        for iset in hypergraph_independent_sets(h):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members

    def test_no_edges_rejected(self):
        h = Hypergraph(4, 2, [])
        with pytest.raises(ParameterError):
            build_hypergraph_collection(h, HypergraphContainerParams(p=0.5, C=1.0, r=2))

    def test_codegree_violation_is_structured(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(CodegreeConditionError) as exc:
            build_hypergraph_collection(h, HypergraphContainerParams(p=1.0, C=1.0, r=3))
        assert exc.value.report.checks[0].i == 1

    def test_c4_cross_check_with_regular_builder(self):
        g = cycle_graph(4)
        reg = build_regular_collection(g, EPS, force=True)
        params = HypergraphContainerParams(p=1.0, C=2.0, r=2)
        eng = build_hypergraph_collection(graph_as_hypergraph(g), params)
        reg_members = {c.mask for c in reg.containers}
        eng_members = {c.mask for c in eng.containers}
        for iset in all_independent_sets(g):
            assert reg.locate(VertexSet(iset)).mask in reg_members
            assert eng.locate(VertexSet(iset)).mask in eng_members
            assert iset & ~eng.locate(VertexSet(iset)).mask == 0

    def test_random_hypergraph_coverage(self):
        cases = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(6, 14)
            r = rng.choice([2, 3])
            m = rng.randint(n, 3 * n)
            h = _random_hypergraph(n, r, min(m, len(list(combinations(range(n), r)))), seed)
            density = len(h.edges) / n
            p = min(1.0, 2.0 / max(1.0, density))
            # pick C just large enough that the conditions hold; the point
            # here is coverage, not the constants
            from contsolve.core import max_codegree

            c_needed = max(
                max_codegree(h, i) / (p ** (i - 1) * density) for i in range(1, r + 1)
            )
            params = HypergraphContainerParams(p=p, C=c_needed * 1.001, r=r)
            coll = build_hypergraph_collection(h, params, candidate_budget=50000)
            members = {c.mask for c in coll.containers}
            for iset in hypergraph_independent_sets(h):
                cont = coll.locate(VertexSet(iset))
                assert iset & ~cont.mask == 0
                assert cont.mask in members
            cases += 1
        assert cases == 40

    def test_fingerprint_reduces_to_graph_scheme_shape(self):
        # at r=2 exclusions are plain neighborhoods: a fingerprint vertex must
        # newly exclude >= tau neighbors, the graph analogue of the degree rule
        g = cycle_graph(8)
        h = graph_as_hypergraph(g)
        iset = VertexSet.of([0, 2, 4])
        f = hypergraph_fingerprint(h, iset, tau=1)
        cont = hypergraph_container(h, f, tau=1)
        assert iset.issubset(cont)


def _engine_params(h, p):
    """Engine parameters at edge probability p with C just large enough for
    the co-degree conditions."""
    from contsolve.core import max_codegree

    density = len(h.edges) / h.n
    c_needed = max(max_codegree(h, i) / (p ** (i - 1) * density) for i in range(1, h.r + 1))
    return HypergraphContainerParams(p=p, C=c_needed * 1.001, r=h.r)


class TestFixedPointWalk:
    """The builders walk exactly the fingerprints of the independent sets, so
    their containers are exactly the `locate` images."""

    def test_engine_walks_every_fingerprint_and_nothing_else(self):
        rng = random.Random(41)
        cases = 0
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
            if g.m == 0:
                continue
            h = graph_as_hypergraph(g)
            isets = all_independent_sets(g)
            for tau in (1, 2, 3):
                walked = [f for f, _ in _fixed_points(g.adj_mask, tau)]
                fps = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in isets}
                assert len(walked) == len(set(walked))
                assert set(walked) == fps
            coll = build_hypergraph_collection(h, _engine_params(h, 1.0 / rng.randint(1, 3)))
            tau = coll.stats["tau"]
            fps = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in isets}
            assert coll.stats["candidate_count"] == len(fps)
            images = {coll.locate(VertexSet(i)).mask for i in isets}
            assert {c.mask for c in coll.containers} == images
            assert coll.stats["vacuous"] == (images == {(1 << n) - 1})
            # the per-set API gives the same container as `locate`
            for i in isets:
                fp = hypergraph_fingerprint(h, VertexSet(i), tau)
                assert hypergraph_container(h, fp, tau) == coll.locate(VertexSet(i))
            cases += 1
        assert cases > 40

    def test_regular_builder_walks_every_fingerprint_and_nothing_else(self):
        for g in _coverage_instances():
            for eps in (0.2, EPS):
                coll = build_regular_collection(g, eps, force=True)
                params = coll.params
                isets = all_independent_sets(g)
                fps = {fingerprint(g, VertexSet(i), params).mask for i in isets}
                walked = [f for f, _ in _fixed_points(g.adj_mask, params.epsilon * params.d)]
                assert len(walked) == len(set(walked)) and set(walked) == fps
                assert coll.stats["candidate_count"] == len(fps)
                images = {coll.locate(VertexSet(i)).mask for i in isets}
                assert {c.mask for c in coll.containers} == images
                assert not coll.stats["vacuous"]

    def test_integer_threshold_keeps_locate_images_members(self):
        # epsilon*d = 2 exactly: a vertex bringing exactly 2 new neighbors is
        # both a fingerprint vertex and, under container_of's rule, inside
        # the container
        g = random_regular_graph(12, 5, 9)
        coll = build_regular_collection(g, 0.4, force=True)
        assert coll.params.epsilon * coll.params.d == 2.0
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members

    def test_coverage_on_gnp_at_each_tau(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(12, 0.35, rng.randrange(10**6))
            if g.m == 0:
                continue
            h = graph_as_hypergraph(g)
            for tau in (1, 2, 3):
                coll = build_hypergraph_collection(h, _engine_params(h, 1.0 / tau))
                assert coll.stats["tau"] == tau
                members = {c.mask for c in coll.containers}
                for iset in all_independent_sets(g):
                    cont = coll.locate(VertexSet(iset))
                    assert iset & ~cont.mask == 0 and cont.mask in members

    def test_three_uniform_collection_is_all_of_v(self):
        rng = random.Random(47)
        for seed in range(20):
            n = rng.randint(5, 12)
            h = _random_hypergraph(n, 3, rng.randint(n, 3 * n), seed)
            coll = build_hypergraph_collection(h, _engine_params(h, rng.choice([0.25, 0.5, 1.0])))
            assert [c.mask for c in coll.containers] == [(1 << n) - 1]
            assert coll.stats["candidate_count"] == 1 and coll.stats["vacuous"]
            tau = coll.stats["tau"]
            for iset in hypergraph_independent_sets(h)[:50]:
                assert coll.locate(VertexSet(iset)).mask == (1 << n) - 1
                fp = hypergraph_fingerprint(h, VertexSet(iset), tau)
                assert fp.mask == 0 and hypergraph_container(h, fp, tau).mask == (1 << n) - 1

    def test_budget_raises_tau(self):
        g = random_graph(12, 0.35, 5)
        h = graph_as_hypergraph(g)
        params = _engine_params(h, 1.0)
        walked = build_hypergraph_collection(h, params).stats["candidate_count"]
        coll = build_hypergraph_collection(h, params, candidate_budget=walked - 1)
        assert coll.stats["tau"] > 1 and coll.stats["candidate_count"] < walked
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members


class TestAlmostRegular:
    def test_degree_ratio_enforced(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(ParameterError):
            build_almost_regular_collection(star, 1.5)

    def test_coverage_on_irregular_graph(self):
        rng = random.Random(3)
        edges = set()
        while len(edges) < 14:
            u, v = rng.sample(range(10), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(10, sorted(edges))
        ratio = g.max_degree / g.average_degree + 0.1
        coll = build_almost_regular_collection(g, ratio)
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members
