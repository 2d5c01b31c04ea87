import math
import random
from functools import partial
from itertools import combinations

import pytest

from contsolve import containers
from contsolve.containers import (
    ContainerParams,
    build_almost_regular_collection,
    build_hypergraph_collection,
    build_regular_collection,
    collection_report,
    maximal_masks,
)
from contsolve.coloring import ColoringConfig, solve_kcoloring
from contsolve.mis import MisConfig, mis_containers
from contsolve.partition import build_partition_collection_regular
from contsolve.containers import _locate, _walked_containers
from contsolve.core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
    random_regular_graph,
)
from oracles import (
    _exclusions,
    all_independent_sets,
    collection_driver,
    hypergraph_container,
    hypergraph_fingerprint,
    hypergraph_independent_sets,
    scan_passed,
)

EPS = 0.49  # close to the top of the valid range; keeps thresholds at ~d/2


def _walked_fingerprints(excludes, tau):
    """The fingerprints one walk at threshold tau lists, its map's keys, in
    walk order, once the walk is seen to reach each of them once: every one
    but the root is asked about once before it is walked."""
    reached = []
    walked, _ = _walked_containers(
        excludes, tau, lambda f, reach, container: container or not reached.append(f)
    )
    assert sorted(reached) == sorted(set(walked) - {0})
    return list(walked)


def _excluded(excludes, f):
    """What the vertices of F exclude."""
    excluded = 0
    for v in VertexSet(f):
        excluded |= excludes[v]
    return excluded


class _Fingerprints(dict):
    """A walk map under which `_locate` returns the fingerprint it scanned."""

    def __missing__(self, f):
        return f


def _scanned(g, eps, iset):
    """The fingerprint the regular collection's `locate` scans I to."""
    tau = build_regular_collection(g, eps, force=True).stats["tau"]
    return _locate(g, g.adj_mask, tau, _Fingerprints(), iset)


class TestFingerprint:
    """The regular scheme's scan, as `locate` runs it: v joins F when it
    brings at least tau = ceil(epsilon*d) neighbors outside F's
    neighborhood."""

    def test_c4_hand_example(self):
        # tau = 1: 0 joins, then 2 brings no new neighbor
        f = _scanned(cycle_graph(4), 0.5 - 1e-12, VertexSet.of([0, 2]))
        assert f.to_list() == [0]

    def test_empty_set(self):
        assert _scanned(cycle_graph(4), 0.25, VertexSet(0)).mask == 0

    def test_k2_single_vertex(self):
        assert _scanned(complete_graph(2), 0.5 - 1e-12, VertexSet.of([0])).to_list() == [0]

    def test_rejects_dependent_set(self):
        coll = build_regular_collection(complete_graph(3), 0.25, force=True)
        with pytest.raises(PreconditionError):
            coll.locate(VertexSet.of([0, 1]))

    def test_epsilon_range_enforced(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ParameterError):
                ContainerParams(epsilon=bad, d=3.0)

    def test_tau_is_the_ceiling_of_the_exact_product(self):
        # 0.28 * 25 is 7.000000000000001 in floats, where epsilon*d is 7;
        # of the two-decimal epsilons below 1/2 and the degrees below 300,
        # 16 pairs have a float product just over an integer like that
        assert ContainerParams(epsilon=0.28, d=25.0).tau == 7
        off = []
        for hundredths in range(1, 50):
            for d in range(1, 300):
                exact = -(-hundredths * d // 100)
                if math.ceil(hundredths / 100 * d) != exact:
                    off.append((hundredths, d))
                assert ContainerParams(epsilon=hundredths / 100, d=float(d)).tau == exact
        assert len(off) == 16 and {(28, 25), (7, 100), (14, 50)} <= set(off)

    def test_tau_is_at_least_one(self):
        # epsilon*d rounds to 0 at 9 decimals, and no vertex that brings no
        # new neighbor may join a fingerprint
        for epsilon in (1e-12, 1e-170, 5e-324):
            assert ContainerParams(epsilon=epsilon, d=4.0).tau == 1
        assert ContainerParams(epsilon=2e-9, d=1.0).tau == 1

    def test_low_degree_is_d_at_most_two_over_epsilon_squared(self):
        # tested as d*epsilon^2 <= 2, which gives the flag of d <= 2/epsilon^2
        # on every four-decimal epsilon below 1/2 and every degree to 200
        for tenths_of_millis in range(1, 5000):
            epsilon = tenths_of_millis / 10000
            for d in range(1, 201):
                want = d <= 2.0 / (epsilon * epsilon)
                assert ContainerParams(epsilon=epsilon, d=float(d)).low_degree == want, (epsilon, d)
        # and where epsilon^2 is 0.0 in floats the flag is set, not a division
        for epsilon in (1.5e-162, 1e-170, 5e-324):
            assert epsilon * epsilon == 0.0
            assert ContainerParams(epsilon=epsilon, d=200.0).low_degree


class TestContainerOf:
    """The regular scheme's container rule, as `locate` returns it: F plus
    every vertex outside F and its neighborhood bringing fewer than tau new
    neighbors."""

    def test_c4_hand_example(self):
        coll = build_regular_collection(cycle_graph(4), 0.5 - 1e-12, force=True)
        for iset in ([0], [0, 2]):
            assert coll.locate(VertexSet.of(iset)).to_list() == [0, 2]

    def test_empty_fingerprint(self):
        # every vertex brings 2 >= tau = 1 new neighbors to the empty F
        coll = build_regular_collection(cycle_graph(4), 0.25, force=True)
        assert coll.locate(VertexSet(0)).mask == 0

    def test_k2(self):
        coll = build_regular_collection(complete_graph(2), 0.5 - 1e-12, force=True)
        assert coll.locate(VertexSet.of([0])).to_list() == [0]


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

    def test_tiny_epsilon_is_flagged_or_walked_at_tau_one(self):
        # below epsilon = 1.57e-162, epsilon^2 is 0.0 in floats: the graph
        # is flagged low-degree, and forced, walked at tau 1
        g = random_regular_graph(12, 4, 1)
        for epsilon in (1e-170, 1e-12):
            coll = build_regular_collection(g, epsilon)
            assert coll.low_degree and len(coll) == 0
            forced = build_regular_collection(g, epsilon, force=True)
            assert forced.low_degree and forced.stats["forced"]
            assert forced.stats["tau"] == 1 and forced.params.tau == 1
            for iset in all_independent_sets(g):
                assert iset & ~forced.locate(VertexSet(iset)).mask == 0

    def test_epsilon_whose_size_bound_overflows_is_refused(self):
        # q = 1/(epsilon*d) is inf below epsilon*d of about 5.6e-309, and
        # q*n a little above it: refused before the low-degree flag, while
        # ContainerParams still takes such an epsilon
        g = random_regular_graph(12, 4, 1)
        for epsilon in (1e-320, 5e-324, 6e-309):
            for force in (False, True):
                with pytest.raises(ParameterError, match="size bound overflows"):
                    build_regular_collection(g, epsilon, force=force)
        assert math.isinf(ContainerParams(epsilon=1e-320, d=4.0).q)
        assert build_regular_collection(g, 1e-300, force=True).stats["size_bound"] < math.inf
        # an edgeless graph has no q and is flagged as before
        assert build_regular_collection(Graph(4, []), 1e-320).low_degree

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
            # the oracles' r=2 scans are the regular scheme's per-set scans
            h = Hypergraph(g.n, 2, g.edges)
            for iset in all_independent_sets(g):
                ivs = VertexSet(iset)
                assert ivs.cardinality <= g.n / 2  # regular graphs only
                f = hypergraph_fingerprint(h, ivs, params.tau)
                assert f.cardinality <= params.q * g.n
                cont = hypergraph_container(h, f, params.tau)
                assert iset & ~cont.mask == 0
                assert cont.mask in members
                assert cont.cardinality <= size_bound + 1e-9

    def test_sparsity_bound(self):
        for g in _coverage_instances():
            d = g.degree(0)
            coll = build_regular_collection(g, EPS, force=True)
            for c in coll.containers:
                assert g.induced_edge_count(c.mask) <= EPS * d * g.n + 1e-9
            # the report's histogram counts each container's edges
            inside = [sum(c.mask >> u & c.mask >> v & 1 for u, v in g.edges) for c in coll.containers]
            histogram = {str(s): inside.count(s) for s in sorted(set(inside))}
            assert collection_report(coll, g)["sparsity_histogram"] == histogram

    def test_deterministic_output(self):
        g = random_regular_graph(12, 4, 3)
        a = build_regular_collection(g, EPS, force=True)
        b = build_regular_collection(g, EPS, force=True)
        assert [c.mask for c in a.containers] == [c.mask for c in b.containers]

    def test_forced_collection_reports_its_tau(self):
        # these walks fit CANDIDATE_BUDGET, so the driver keeps params.tau
        for g in _coverage_instances():
            for eps in (0.25, EPS):
                coll = build_regular_collection(g, eps, force=True)
                assert coll.stats["tau"] == coll.params.tau

    def test_budget_raises_tau(self, monkeypatch):
        # past the budget the driver raises tau on the regular scheme as on
        # the engine: params stay the requested scheme, locate follows the
        # walked tau, and the size check holds at epsilon' = tau/d; a perfect
        # matching is raised to tau = 2d, where the bound is capped at
        # epsilon' = 1 rather than divided by 2 - 2
        default = containers.CANDIDATE_BUDGET
        matching = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        for g in (*_coverage_instances(), matching):
            monkeypatch.setattr(containers, "CANDIDATE_BUDGET", default)
            full = build_regular_collection(g, 0.25, force=True)
            walked = full.stats["candidate_count"]
            monkeypatch.setattr(containers, "CANDIDATE_BUDGET", walked - 1)
            coll = build_regular_collection(g, 0.25, force=True)
            tau, d = coll.stats["tau"], g.degree(0)
            assert coll.params == full.params and tau > coll.params.tau
            assert coll.stats["candidate_count"] < walked
            bound = (1.0 / (2.0 - min(tau / d, 1.0)) + 1.0 / tau) * g.n
            assert coll.stats["size_bound"] == pytest.approx(bound)
            assert coll.stats["max_container_size"] <= bound
            members = {c.mask for c in coll.containers}
            for iset in all_independent_sets(g):
                cont = coll.locate(VertexSet(iset))
                assert iset & ~cont.mask == 0 and cont.mask in members

    def test_certified_says_whether_the_size_bound_is_below_n(self):
        # criterion 8's 3-regular n=24 graphs overflow the budget at tau = 1;
        # tau = 2 is epsilon' = 2/3, a bound of (3/4 + 1/2) n = 30, above n,
        # so the size check cannot fail; the dense scheme's bound stays below n
        for seed in (538876, 810624):
            coll = build_regular_collection(random_regular_graph(24, 3, seed), 0.25, force=True)
            assert coll.stats["tau"] == 2
            assert coll.stats["size_bound"] == pytest.approx(30.0)
            assert coll.stats["certified"] is False
        for n, d in ((18, 8), (24, 12)):
            coll = build_regular_collection(random_regular_graph(n, d, 5), 0.45, force=True)
            assert coll.stats["size_bound"] < n and coll.stats["certified"] is True


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


def _random_hypergraph(n, r, m, seed):
    rng = random.Random(seed)
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    return Hypergraph(n, r, pool[:m])


class TestHypergraphEngine:
    def test_single_edge_coverage(self):
        # max degree 1 is three times the edge density 1/3; the engine checks
        # no co-degree condition, builds {V} at p = 1 and records p
        h = Hypergraph(3, 3, [(0, 1, 2)])
        coll = build_hypergraph_collection(h, 1.0)
        assert [c.mask for c in coll.containers] == [0b111] and coll.params is None
        assert (coll.stats["p"], coll.stats["tau"], coll.stats["vacuous"]) == (1.0, 1, True)
        members = {c.mask for c in coll.containers}
        for iset in hypergraph_independent_sets(h):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members

    def test_no_edges_rejected(self):
        h = Hypergraph(4, 2, [])
        with pytest.raises(ParameterError):
            build_hypergraph_collection(h, 0.5)

    def test_p_outside_unit_interval_and_one_uniform_rejected(self):
        h = Hypergraph(4, 2, cycle_graph(4).edges)
        for bad in (0, -0.5, 1.5):
            with pytest.raises(ParameterError, match="p must be"):
                build_hypergraph_collection(h, bad)
        with pytest.raises(ParameterError, match="uniformity"):
            build_hypergraph_collection(Hypergraph(3, 1, [(0,), (2,)]), 1.0)

    def test_locate_rejects_dependent_set(self):
        g = cycle_graph(6)
        regular = build_regular_collection(g, EPS, force=True)
        engine = build_hypergraph_collection(Hypergraph(g.n, 2, g.edges), 1.0)
        triple = build_hypergraph_collection(Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]), 1.0)
        for coll, dependent in ((regular, 0b11), (engine, 0b11), (triple, 0b111)):
            with pytest.raises(PreconditionError):
                coll.locate(VertexSet(dependent))

    def test_locate_rejects_a_set_beyond_the_structure(self):
        # one vertex past n: ParameterError, before the independence test
        # and the scan would read past the adjacency and exclusion lists
        regular = build_regular_collection(random_regular_graph(12, 6, 1), 0.45, force=True)
        engine = build_hypergraph_collection(Hypergraph(6, 2, cycle_graph(6).edges), 1.0)
        triple = build_hypergraph_collection(Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]), 1.0)
        for coll, n in ((regular, 12), (engine, 6), (triple, 4)):
            with pytest.raises(ParameterError, match="vertex mask of the structure"):
                coll.locate(VertexSet(1 << n))
            with pytest.raises(ParameterError, match="vertex mask of the structure"):
                coll.locate(VertexSet(0b11 | 1 << n))

    def test_locate_matches_the_per_set_api(self):
        # the shared scan gives the container of the single-pass fingerprint
        rng = random.Random(17)
        for seed in range(20):
            n = rng.randint(4, 9)
            r = rng.choice([2, 3])
            pool = len(list(combinations(range(n), r)))
            h = _random_hypergraph(n, r, min(rng.randint(n, 2 * n), pool), seed)
            coll = build_hypergraph_collection(h, rng.choice([0.25, 0.5, 1.0]))
            tau = coll.stats["tau"]
            for iset in hypergraph_independent_sets(h):
                fp = hypergraph_fingerprint(h, VertexSet(iset), tau)
                assert coll.locate(VertexSet(iset)) == hypergraph_container(h, fp, tau)

    def test_report_prints_p_from_the_stats(self):
        g = petersen_graph()
        coll = build_hypergraph_collection(Hypergraph(g.n, 2, g.edges), 0.5)
        report = collection_report(coll, g)
        assert coll.params is None and "params" not in report
        assert report["stats"]["p"] == 0.5 and report["stats"]["tau"] == coll.stats["tau"]

    def test_c4_cross_check_with_regular_builder(self):
        g = cycle_graph(4)
        reg = build_regular_collection(g, EPS, force=True)
        eng = build_hypergraph_collection(Hypergraph(g.n, 2, g.edges), 1.0)
        reg_members = {c.mask for c in reg.containers}
        eng_members = {c.mask for c in eng.containers}
        for iset in all_independent_sets(g):
            assert reg.locate(VertexSet(iset)).mask in reg_members
            assert eng.locate(VertexSet(iset)).mask in eng_members
            assert iset & ~eng.locate(VertexSet(iset)).mask == 0

    def test_random_hypergraph_coverage(self, monkeypatch):
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", 50000)
        cases = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(6, 14)
            r = rng.choice([2, 3])
            m = rng.randint(n, 3 * n)
            h = _random_hypergraph(n, r, min(m, len(list(combinations(range(n), r)))), seed)
            p = min(1.0, 2.0 / max(1.0, len(h.edges) / n))
            coll = build_hypergraph_collection(h, p)
            members = {c.mask for c in coll.containers}
            for iset in hypergraph_independent_sets(h):
                cont = coll.locate(VertexSet(iset))
                assert iset & ~cont.mask == 0
                assert cont.mask in members
            cases += 1
        assert cases == 40

    def test_graph_builds_as_its_two_uniform_hypergraph(self, monkeypatch):
        # a Graph is walked on its adjacency masks; the collection, its stats
        # and its locate images are those of the same edges as a 2-uniform
        # hypergraph, with some edges repeated or not (as repeated 2-clauses
        # give), with and without the driver raising tau
        default = containers.CANDIDATE_BUDGET
        rng = random.Random(71)
        cases = 0
        for _ in range(30):
            g = random_graph(rng.randint(2, 12), rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
            if g.m == 0:
                continue
            repeated = list(g.edges) + rng.choices(g.edges, k=rng.randint(1, g.m))
            rng.shuffle(repeated)
            hs = (Hypergraph(g.n, 2, g.edges), Hypergraph(g.n, 2, repeated))
            p = rng.choice([0.25, 0.5, 1.0])
            for budget, kwargs in ((default, {}), (default, {"max_containers": 2}), (3, {})):
                monkeypatch.setattr(containers, "CANDIDATE_BUDGET", budget)
                a = build_hypergraph_collection(g, p, **kwargs)
                for h in hs:
                    b = build_hypergraph_collection(h, p, **kwargs)
                    assert a.containers == b.containers and a.stats == b.stats
                    for iset in all_independent_sets(g):
                        assert a.locate(VertexSet(iset)) == b.locate(VertexSet(iset))
            u, v = g.edges[0]
            with pytest.raises(PreconditionError):
                a.locate(VertexSet(1 << u | 1 << v))
            cases += 1
        assert cases > 20

    def test_fingerprint_reduces_to_graph_scheme_shape(self):
        # at r=2 exclusions are plain neighborhoods: a fingerprint vertex must
        # newly exclude >= tau neighbors, the graph analogue of the degree rule
        g = cycle_graph(8)
        h = Hypergraph(g.n, 2, g.edges)
        iset = VertexSet.of([0, 2, 4])
        f = hypergraph_fingerprint(h, iset, tau=1)
        cont = hypergraph_container(h, f, tau=1)
        assert iset.issubset(cont)


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
            h = Hypergraph(g.n, 2, g.edges)
            isets = all_independent_sets(g)
            for tau in (1, 2, 3):
                walked = _walked_fingerprints(g.adj_mask, tau)
                fps = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in isets}
                assert set(walked) == fps
            coll = build_hypergraph_collection(h, 1.0 / rng.randint(1, 3))
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

    def test_every_walk_lists_each_lowest_child_first(self):
        # an uncut walk lists the fixed points of a brute-force scan depth
        # first, the lowest child of each fingerprint first, each with the
        # per-set container; a walk whose `keep` says yes to everything
        # lists the same map in the same order
        rng = random.Random(42)
        cases = 0
        for _ in range(60):
            g = random_graph(rng.randint(2, 12), rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
            if g.m == 0:
                continue
            h = Hypergraph(g.n, 2, g.edges)
            isets = all_independent_sets(g)
            for tau in (1, 2, 3):
                fixed = {hypergraph_fingerprint(h, VertexSet(i), tau).mask for i in isets}

                def preorder(f):
                    yield f
                    for v in range(f.bit_length(), g.n):
                        if f | 1 << v in fixed:
                            yield from preorder(f | 1 << v)

                listed = [(f, hypergraph_container(h, VertexSet(f), tau).mask) for f in preorder(0)]
                assert list(_walked_containers(g.adj_mask, tau)[0].items()) == listed
                walked, cut = _walked_containers(g.adj_mask, tau, lambda *args: True)
                assert list(walked.items()) == listed and cut == 0
                cases += len(fixed) > 2
        assert cases > 60

    def test_regular_builder_walks_every_fingerprint_and_nothing_else(self):
        # 0.25 makes epsilon*d an integer on the 4-regular instances (1.0);
        # 0.3 puts the float product just off one (0.3*3 = 0.8999999999999999)
        for g in _coverage_instances():
            for eps in (0.2, 0.25, 0.3, EPS):
                coll = build_regular_collection(g, eps, force=True)
                params, h = coll.params, Hypergraph(g.n, 2, g.edges)
                isets = all_independent_sets(g)
                fps = {hypergraph_fingerprint(h, VertexSet(i), params.tau).mask for i in isets}
                walked = _walked_fingerprints(g.adj_mask, params.epsilon * params.d)
                assert set(walked) == fps
                assert coll.stats["candidate_count"] == len(fps)
                images = {coll.locate(VertexSet(i)).mask for i in isets}
                assert {c.mask for c in coll.containers} == images
                assert not coll.stats["vacuous"]
                # the shared scan gives the per-set reference's container
                for i in isets:
                    fp = hypergraph_fingerprint(h, VertexSet(i), params.tau)
                    assert coll.locate(VertexSet(i)) == hypergraph_container(h, fp, params.tau)

    def test_integer_threshold_keeps_locate_images_members(self):
        # epsilon*d = 2 exactly: a vertex bringing exactly 2 new neighbors is
        # a fingerprint vertex, so the one container rule leaves it out of
        # the container, as the walk does
        g = random_regular_graph(12, 5, 9)
        coll = build_regular_collection(g, 0.4, force=True)
        assert coll.params.epsilon * coll.params.d == 2.0
        members = {c.mask for c in coll.containers}
        walked, _ = _walked_containers(g.adj_mask, coll.params.tau)
        assert members == set(walked.values())
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members

    def test_coverage_on_gnp_at_each_tau(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(12, 0.35, rng.randrange(10**6))
            if g.m == 0:
                continue
            h = Hypergraph(g.n, 2, g.edges)
            for tau in (1, 2, 3):
                coll = build_hypergraph_collection(h, 1.0 / tau)
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
            coll = build_hypergraph_collection(h, rng.choice([0.25, 0.5, 1.0]))
            assert [c.mask for c in coll.containers] == [(1 << n) - 1]
            assert coll.stats["candidate_count"] == 1 and coll.stats["vacuous"]
            tau = coll.stats["tau"]
            for iset in hypergraph_independent_sets(h)[:50]:
                assert coll.locate(VertexSet(iset)).mask == (1 << n) - 1
                fp = hypergraph_fingerprint(h, VertexSet(iset), tau)
                assert fp.mask == 0 and hypergraph_container(h, fp, tau).mask == (1 << n) - 1

    def test_budget_raises_tau(self, monkeypatch):
        g = random_graph(12, 0.35, 5)
        h = Hypergraph(g.n, 2, g.edges)
        walked = build_hypergraph_collection(h, 1.0).stats["candidate_count"]
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", walked - 1)
        coll = build_hypergraph_collection(h, 1.0)
        assert coll.stats["tau"] > 1 and coll.stats["candidate_count"] < walked
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members


def _assert_walk_matches_container_rule(excludes, tau):
    """Every walked fingerprint carries its heavy set, and the container the
    walk reads off it is the one container rule's: F plus every vertex
    outside F and its exclusions that is not heavy. The heavy set is what
    the container leaves out of V minus F's exclusions. Returns the number
    of fingerprints walked."""
    full = (1 << len(excludes)) - 1
    walked = 0
    for f, container in _walked_containers(excludes, tau)[0].items():
        excluded = _excluded(excludes, f)
        heavy = full & ~(excluded | container)
        expected_heavy = 0
        for v in range(len(excludes)):
            if not (f | excluded) >> v & 1 and (excludes[v] & ~excluded).bit_count() >= tau:
                expected_heavy |= 1 << v
        assert heavy == expected_heavy
        free = full & ~(f | excluded)
        assert container == f | (free & ~expected_heavy)
        walked += 1
    return walked


class TestHeavySetWalk:
    """The walk tests only the parent's heavy vertices for each child and
    still gives every fingerprint the container of the one container rule."""

    def test_gnp_at_each_tau(self):
        rng = random.Random(61)
        for _ in range(40):
            n, p = rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5, 0.7])
            g = random_graph(n, p, rng.randrange(10**6))
            for tau in (1, 2, 3):
                assert _assert_walk_matches_container_rule(g.adj_mask, tau) >= 1

    def test_forced_regular_at_two_epsilons(self):
        for g in _coverage_instances():
            for eps in (0.25, EPS):
                coll = build_regular_collection(g, eps, force=True)
                walked = _assert_walk_matches_container_rule(g.adj_mask, coll.params.tau)
                assert walked == coll.stats["candidate_count"]

    def test_three_uniform_walk_is_the_root_with_container_v(self):
        rng = random.Random(67)
        for seed in range(20):
            n = rng.randint(5, 12)
            h = _random_hypergraph(n, 3, rng.randint(n, 3 * n), seed)
            excludes = [_exclusions(h, v, 1 << v) for v in range(n)]
            for tau in (1, 2, 3):
                assert _assert_walk_matches_container_rule(excludes, tau) == 1
                walked, _ = _walked_containers(excludes, tau)
                assert (len(walked), set(walked.values())) == (1, {(1 << n) - 1})


def _keep_builds():
    """(independent sets, build) pairs, `build(keep=...)` being one builder
    at fixed arguments: the engine, the one builder that takes `keep`, on
    regular graphs at the regular scheme's threshold, as the MIS wrapper
    builds, on G(n, p) graphs and their 2-uniform hypergraphs, and at r=3."""
    rng = random.Random(81)
    for g in _coverage_instances():
        p = min(1.0, 1.0 / (EPS * g.average_degree))
        yield all_independent_sets(g), partial(build_hypergraph_collection, g, p)
    for _ in range(20):
        g = random_graph(rng.randint(4, 12), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
        if g.m == 0:
            continue
        h = Hypergraph(g.n, 2, g.edges)
        isets = all_independent_sets(g)
        yield isets, partial(build_hypergraph_collection, h, rng.choice([0.25, 0.5, 1.0]))
        yield isets, partial(build_hypergraph_collection, g, min(1.0, 4.0 / g.average_degree))
    h = _random_hypergraph(9, 3, 20, 5)
    yield hypergraph_independent_sets(h)[:50], partial(build_hypergraph_collection, h, 0.5)


class TestCutWalk:
    """`keep` skips fingerprint subtrees; keeping every one changes
    nothing, and a collection that lost one offers no `locate`."""

    def test_keeping_everything_changes_nothing(self):
        for isets, build in _keep_builds():
            a, b = build(), build(keep=lambda *args: True)
            assert a.containers == b.containers and a.stats == b.stats
            assert "cut" not in b.stats and b.locate is not None
            for i in isets:
                assert a.locate(VertexSet(i)) == b.locate(VertexSet(i))

    def test_the_root_is_asked_only_about_its_container(self):
        # every fingerprint but the root is asked once about what it can
        # reach, and every fingerprint, the root included, once about its
        # container; the root's is the walk's last ask
        for _, build in _keep_builds():
            asked = []
            coll = build(keep=lambda f, reach, container: asked.append((f, container)) or True)
            walked = [f for f, container in asked if not container]
            owned = [f for f, container in asked if container]
            assert 0 not in walked and asked[-1] == (0, True)
            assert len(set(walked)) == len(walked) == coll.stats["candidate_count"] - 1
            assert sorted(owned) == sorted(walked + [0])
        g = random_graph(10, 0.4, 3)
        asked = []
        walked, cut = _walked_containers(g.adj_mask, 1, lambda *args: asked.append(args) or False)
        assert list(walked) == [0]
        assert [f for f, _, container in asked if container] == [0] and asked[-1][2]
        # each of the root's children is cut; the no about the root's own
        # container skips nothing
        assert cut == len(asked) - 1 > 0

    def test_keep_sees_what_the_walk_carries(self, monkeypatch):
        # F is asked about V minus its exclusions and S(F), then about its
        # own container minus S(F): a leaf (no heavy vertex above max F)
        # right away, and any other F once its subtree is walked, so the
        # asks about the fingerprints below F are the ones just before F's
        # second
        rng = random.Random(82)
        leaves = inner = 0
        for trial in range(12):
            g = random_regular_graph(12, 4, 11) if trial == 0 else random_graph(
                rng.randint(6, 13), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6)
            )
            full = (1 << g.n) - 1
            want = []
            leaf = set()
            for f, container in _walked_containers(g.adj_mask, 2)[0].items():
                excluded = _excluded(g.adj_mask, f)
                heavy = full & ~(excluded | container)
                passed = scan_passed(g, f, 2)
                if f:
                    want.append((f, full & ~(excluded | passed), False))
                    if heavy >> f.bit_length():
                        inner += 1
                    else:
                        leaf.add(f)
                want.append((f, container & ~passed, True))
            leaves += len(leaf)
            asked = []
            _walked_containers(g.adj_mask, 2, lambda *args: asked.append(args) or True)
            assert sorted(asked) == sorted(want)
            position = {(f, container): i for i, (f, _, container) in enumerate(asked)}
            for f, _, container in asked:
                if container:
                    first, last = position.get((f, False), -1), position[(f, True)]
                    prefix = (1 << f.bit_length()) - 1
                    below = [i for i, (b, _, _) in enumerate(asked) if b != f and b & prefix == f]
                    assert below == list(range(last - len(below), last)) and first < last - len(below)
                    assert (last == first + 1) == (f in leaf)
        assert leaves > 20 and inner > 20
        # keep is asked before the child's heavy set: a walk that rejects
        # every child computes only the root's
        heavy_calls = []
        real = containers._heavy
        monkeypatch.setattr(containers, "_heavy", lambda *args: heavy_calls.append(1) or real(*args))
        g = random_regular_graph(12, 4, 11)
        assert list(_walked_containers(g.adj_mask, 2, lambda *args: False)[0]) == [0]
        assert len(heavy_calls) == 1

    def test_refusing_every_container_ask_is_the_uncut_walk(self):
        # the answer about a container is ignored: a keep that passes every
        # reach ask and refuses every container ask gives the uncut walk's
        # map, containers, tau and locate answers, and no cut
        def refuse(f, reach, container):
            return not container

        for isets, build in _keep_builds():
            a, b = build(), build(keep=refuse)
            assert a.containers == b.containers and a.stats == b.stats
            assert "cut" not in b.stats and b.locate is not None
            for i in isets:
                assert a.locate(VertexSet(i)) == b.locate(VertexSet(i))
        rng = random.Random(83)
        for _ in range(30):
            g = random_graph(rng.randint(4, 14), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
            for tau in (1, 2, 3):
                a, b = _walked_containers(g.adj_mask, tau), _walked_containers(g.adj_mask, tau, refuse)
                assert list(a[0].items()) == list(b[0].items()) and a[1] == b[1] == 0

    def test_a_cut_walk_keeps_its_tau_and_refuses_past_the_budget(self, monkeypatch):
        # the uncut walk's threshold is raised past the budget; the cut
        # walk's is not: its SizeLimitError propagates. A cut walk takes no
        # max_containers, which would ask for a raise
        g = random_graph(14, 0.4, 5)
        keep = lambda *args: True
        start = build_hypergraph_collection(g, 0.5, keep=keep)
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", start.stats["candidate_count"] - 1)
        assert build_hypergraph_collection(g, 0.5).stats["tau"] > start.stats["tau"]
        with pytest.raises(SizeLimitError) as refused:
            build_hypergraph_collection(g, 0.5, keep=keep)
        assert refused.value.stage == "fingerprint-enumeration"
        with pytest.raises(ParameterError, match="max_containers"):
            build_hypergraph_collection(g, 0.5, max_containers=5, keep=keep)

    def test_cut_collection_reports_the_cut_and_has_no_locate(self):
        # keeping the fingerprints of at most one vertex cuts the subtree of
        # every two-vertex fingerprint the uncut walk lists, at its reach
        # ask; a no about a container, asked once its subtree is walked (a
        # leaf's right after its reach ask), is neither a cut nor a loss, so
        # rejecting every container cuts nothing, the leaves' included. Each
        # F is asked about its container minus S(F), and the collection
        # keeps the whole container
        cases = leaf_cases = 0
        for _, build in _keep_builds():
            asked = []
            full = build(keep=lambda f, reach, container: asked.append((f, reach, container)) or True)
            walked = [f for f, _, container in asked if not container]
            # a leaf's two asks are consecutive; any other F's enclose its children's
            leaves = [f for (f, _, _), (then, _, own) in zip(asked, asked[1:]) if then == f and own]
            coll = build(keep=lambda f, reach, container: not f & (f - 1))
            assert coll.stats["tau"] == full.stats["tau"]
            sizes = [f.bit_count() for f in walked]
            assert coll.stats["candidate_count"] == 1 + sizes.count(1)
            assert {c.mask for c in coll.containers} <= {c.mask for c in full.containers}
            if sizes.count(2):
                assert coll.stats["cut"] == sizes.count(2) and coll.locate is None
                cases += 1
            else:
                assert "cut" not in coll.stats and coll.locate is not None
            coll = build(keep=lambda f, reach, container: not container)
            assert coll.stats["tau"] == full.stats["tau"]
            assert coll.stats["candidate_count"] == 1 + len(walked)
            structure, tau = build.args[0], full.stats["tau"]
            owned = {f: hypergraph_container(structure, VertexSet(f), tau).mask for f, _, own in asked if own}
            assert all(
                reach == owned[f] & ~scan_passed(structure, f, tau) for f, reach, own in asked if own
            )
            assert {c.mask for c in coll.containers} == set(owned.values())
            assert "cut" not in coll.stats and coll.locate is not None
            leaf_cases += bool(leaves)
        assert cases > 10 and leaf_cases > 10


class TestAsksHoldTheirSets:
    """The walk asks `keep` only about what a set whose fingerprint starts
    with F can hold, and that holds every such set."""

    def test_every_set_lies_in_the_asks_about_its_fingerprint(self):
        # brute force on random and regular graphs with n <= 12 at several
        # tau: every independent set whose fingerprint has F as a prefix
        # lies in the reach asked about F, and every set whose fingerprint
        # is F in the container asked about F; both asks leave S(F) out
        rng = random.Random(88)
        reaches = narrowed = 0
        for trial in range(40):
            if trial % 2:
                n, d = rng.choice([(8, 3), (10, 4), (12, 4), (12, 6)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
            else:
                g = random_graph(rng.randint(4, 12), rng.choice([0.25, 0.4, 0.6]), rng.randrange(10**6))
            isets = all_independent_sets(g)
            for tau in (1, 2, 3):
                # the union of the sets of each fingerprint
                held: dict[int, int] = {}
                for i in isets:
                    fp = hypergraph_fingerprint(g, VertexSet(i), tau).mask
                    held[fp] = held.get(fp, 0) | i
                asked = []
                _walked_containers(g.adj_mask, tau, lambda *args: asked.append(args) or True)
                for f, mask, container in asked:
                    prefix = (1 << f.bit_length()) - 1
                    for fp, union in held.items():
                        if fp == f or (not container and fp & prefix == f):
                            assert not union & ~mask
                    assert not mask & scan_passed(g, f, tau)
                    reaches += not container
                    narrowed += scan_passed(g, f, tau) != 0
        assert reaches > 2000 and narrowed > 2000


@pytest.fixture
def walks(monkeypatch):
    """The (tau, limit) of every `_walked_containers` call, in order."""
    walks = []

    def walk(excludes, tau, keep=None, limit=None, _real=_walked_containers):
        walks.append((tau, limit))
        return _real(excludes, tau, keep, limit)

    monkeypatch.setattr(containers, "_walked_containers", walk)
    return walks


class TestEarlyStopDriver:
    """The driver stops a walk once it passes max_containers, caps only the
    thresholds whose raise is at most the largest exclusion set, and walks
    each threshold once; its collections are those of the driver that
    finishes every walk, `oracles.collection_driver`."""

    @staticmethod
    def _reference(g, p, max_containers):
        walk = partial(_walked_containers, g.adj_mask)
        start = max(1, math.ceil(round(1.0 / p, 9)))
        return collection_driver(walk, start, max_containers, (1 << g.n) - 1)

    def test_matches_the_driver_that_finishes_every_walk(self, monkeypatch, walks):
        # a perfect matching at tau = 1 walks 3^(n/2) fingerprints and at
        # tau = 2 only the root, so under a small budget its last informative
        # threshold overflows in full and the collection is {V}. A walk is
        # capped only where its raise could still leave a container other
        # than V, and no threshold is walked twice
        rng = random.Random(93)
        default = containers.CANDIDATE_BUDGET
        cases = overshoots = skipped = 0
        for _ in range(400):
            if rng.random() < 0.2:
                half = rng.randint(2, 7)
                g = Graph(2 * half, [(2 * i, 2 * i + 1) for i in range(half)])
            else:
                g = random_graph(rng.randint(3, 14), rng.choice([0.2, 0.35, 0.5, 0.7]), rng.randrange(10**6))
            if g.m == 0:
                continue
            p = rng.choice([0.25, 0.5, 1.0])
            max_containers = rng.randint(1, 12)
            budget = rng.choice([default, rng.randint(2, 40)])
            monkeypatch.setattr(containers, "CANDIDATE_BUDGET", budget)
            walks.clear()
            coll = build_hypergraph_collection(g, p, max_containers=max_containers)
            taus = [tau for tau, _ in walks]
            assert len(set(taus)) == len(taus)
            top = max(m.bit_count() for m in g.adj_mask)
            assert all(tau + max(1, tau // 2) <= top for tau, limit in walks if limit is not None)
            tau, walked = self._reference(g, p, max_containers)
            distinct = sorted(set(walked.values()), key=lambda m: (m.bit_count(), m))
            assert coll.containers == tuple(VertexSet(m) for m in distinct)
            assert coll.stats["tau"] == tau and coll.stats["candidate_count"] == len(walked)
            assert "cut" not in coll.stats and coll.locate is not None
            cases += 1
            overshoots += len(distinct) > max_containers
            if p == 1.0 and coll.stats["vacuous"] and coll.stats["tau"] > 1:
                # tau = 1 passed the cap or the budget, and its whole walk
                # overflows
                stopped = overflowed = False
                try:
                    stopped = _walked_containers(g.adj_mask, 1, None, max_containers)[0] is None
                    _walked_containers(g.adj_mask, 1)
                except SizeLimitError:
                    overflowed = True
                skipped += stopped and overflowed
        assert cases > 300 and overshoots > 20 and skipped > 5

    def test_the_last_informative_threshold_is_walked_once_uncapped(self, walks):
        # degree 8: tau 6 raises to 9, past every exclusion set, so tau 6 is
        # walked whole, once, with no cap, and keeps its 20 containers
        coll = build_almost_regular_collection(random_regular_graph(16, 8, 1), max_containers=10)
        assert walks == [(2, 10), (3, 10), (4, 10), (6, None)]
        assert len(coll) == 20 and coll.stats["tau"] == 6 and not coll.stats["vacuous"]

    def test_a_walk_stops_past_its_limit(self, monkeypatch):
        g = random_graph(14, 0.5, 7)
        whole, cut = _walked_containers(g.adj_mask, 2)
        distinct = len(set(whole.values()))
        assert cut == 0
        # rejecting every fingerprint cuts each child of the root: its heavy vertices
        heavy = sum(m.bit_count() >= 2 for m in g.adj_mask)
        assert _walked_containers(g.adj_mask, 2, lambda *args: False)[1] == heavy > 0
        assert _walked_containers(g.adj_mask, 2, None, distinct) == (whole, 0)
        assert _walked_containers(g.adj_mask, 2, None, distinct - 1) == (None, 0)
        # the walk stops before the budget it would overflow in full
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", len(whole) - 1)
        with pytest.raises(SizeLimitError):
            _walked_containers(g.adj_mask, 2)
        assert _walked_containers(g.adj_mask, 2, None, 1) == (None, 0)
        # a lone fingerprint is never over the limit
        assert _walked_containers(g.adj_mask, g.n, None, 0) == ({0: (1 << g.n) - 1}, 0)


class TestOneWalkPerThreshold:
    """No builder walks a threshold twice: every `_walked_containers` call
    of one build has its own tau."""

    @staticmethod
    def _distinct(walks):
        taus = [tau for tau, _ in walks]
        assert taus and len(set(taus)) == len(taus)
        walks.clear()

    def test_forced_regular_build_raised_past_the_budget(self, walks):
        for seed in (538876, 810624):
            coll = build_regular_collection(random_regular_graph(24, 3, seed), 0.25, force=True)
            assert coll.stats["tau"] > coll.params.tau and len(walks) > 1
            self._distinct(walks)

    def test_r3_hypergraph_build(self, walks):
        for seed in range(5):
            h = _random_hypergraph(10, 3, 40, seed)
            coll = build_hypergraph_collection(h, 0.5, max_containers=1)
            # no vertex excludes anything at r = 3, so no walk is capped
            assert walks == [(coll.stats["tau"], None)] and coll.stats["vacuous"]
            self._distinct(walks)

    def test_mis_containers_mode(self, walks):
        for seed in (1, 2):
            g = random_regular_graph(18, 8, seed)
            r = mis_containers(g, MisConfig(mode="containers", epsilon=0.45))
            assert r.stats["path"] == "containers"
            self._distinct(walks)

    def test_forced_partition_build(self, walks):
        for seed in (1, 2):
            coll = build_partition_collection_regular(random_regular_graph(12, 4, seed), 2, force=True)
            assert coll.base.containers
            self._distinct(walks)

    def test_coloring_decisions_capped_base_build(self, walks):
        graphs = [random_regular_graph(16, 8, 1)] + [random_graph(14, 0.6, seed) for seed in range(8)]
        capped = 0
        for g in graphs:
            for k in (3, 4):
                solve_kcoloring(g, k, ColoringConfig(mode="containers"))
                capped += any(limit is not None for _, limit in walks)
                self._distinct(walks)
        assert capped > 0


class TestAlmostRegular:
    def test_engine_runs_at_four_over_average_degree(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])  # degree ratio 3
        for g in (petersen_graph(), cycle_graph(8), random_graph(12, 0.5, 2), star):
            coll = build_almost_regular_collection(g)
            assert coll.source == "almost-regular-graph" and coll.params is None
            assert coll.stats["p"] == min(1.0, 4.0 / g.average_degree)

    def test_threshold_is_the_regular_schemes_at_a_quarter(self):
        # 196-regular: 1/(4/196) is 49.00000000000001 in floats, and both
        # builders take ceil(196/4) = 49
        g = complete_graph(197)
        assert g.is_regular() and g.average_degree == 196
        assert build_regular_collection(g, 0.25).stats["tau"] == 49
        assert build_almost_regular_collection(g).stats["tau"] == 49
        for d in (3, 4, 6, 9):
            g = random_regular_graph(24, d, d)
            regular = build_regular_collection(g, 0.25, force=True).stats["tau"]
            assert build_almost_regular_collection(g).stats["tau"] == regular

    def test_graph_callers_build_no_hypergraph(self, monkeypatch):
        built = []
        init = Hypergraph.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Hypergraph, "__init__", counted)
        g = random_graph(12, 0.5, 2)
        assert not g.is_regular()
        coll = build_almost_regular_collection(g)
        assert coll.source == "almost-regular-graph" and coll.stats["candidate_count"] > 1
        assert mis_containers(g, MisConfig(mode="containers")).stats["path"] == "containers"
        stats = solve_kcoloring(g, 3, ColoringConfig(mode="containers")).stats
        assert stats["base_containers"] > 0
        assert built == []

    def test_coverage_on_irregular_graph(self):
        rng = random.Random(3)
        edges = set()
        while len(edges) < 14:
            u, v = rng.sample(range(10), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(10, sorted(edges))
        coll = build_almost_regular_collection(g)
        members = {c.mask for c in coll.containers}
        for iset in all_independent_sets(g):
            cont = coll.locate(VertexSet(iset))
            assert iset & ~cont.mask == 0 and cont.mask in members


class TestRegularSchemeThroughTheEngine:
    """The engine on a regular graph at p = 1/(epsilon*d), as the MIS
    wrapper builds, is the regular scheme at epsilon."""

    def test_same_collection_as_the_regular_builder(self):
        # 0.3 at d = 3 puts epsilon*d just below one in floats
        rng = random.Random(97)
        cases = 0
        for eps in (0.1, 0.25, 0.3, 0.37, 0.45, EPS):
            for _ in range(6):
                n, d = rng.choice([(10, 3), (12, 3), (12, 4), (14, 6), (16, 8), (12, 5)])
                g = random_regular_graph(n, d, rng.randrange(10**6))
                regular = build_regular_collection(g, eps, force=True)
                engine = build_hypergraph_collection(g, min(1.0, 1.0 / (eps * d)))
                assert engine.containers == regular.containers
                for key in ("tau", "candidate_count"):
                    assert engine.stats[key] == regular.stats[key]
                cases += 1
        assert cases == 36

    def test_tau_is_the_regular_schemes_for_every_two_decimal_epsilon(self):
        # one edge walks at most three fingerprints, so the engine never
        # raises its starting threshold here
        edge = Graph(2, [(0, 1)])
        for hundredths in range(1, 50):
            eps = hundredths / 100
            for d in range(1, 300):
                tau = build_hypergraph_collection(edge, min(1.0, 1.0 / (eps * d))).stats["tau"]
                assert tau == ContainerParams(eps, d).tau, (eps, d)
