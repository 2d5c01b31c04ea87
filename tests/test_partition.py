import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contsolve.containers import ContainerParams, boundary_set
from contsolve.core import (
    Graph,
    ParameterError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from contsolve.partition import (
    RefinementUnavailableError,
    build_partition_collection_almost_regular,
    build_partition_collection_regular,
    greedy_matching,
    matching_refinement,
    uncovered_edges,
    venn_refinement,
)
from oracles import all_independent_sets


def _intersection(universe_n, subsets, indices):
    inter = (1 << universe_n) - 1  # intersection of zero subsets is everything
    for i in indices:
        inter &= subsets[i].mask
    return inter


def _union(subsets, indices):
    u = 0
    for i in indices:
        u |= subsets[i].mask
    return u


class TestVennRefinement:
    def test_disjoint_pair_tie_break(self):
        # vertices 0..3; ties between the two membership classes resolve to
        # membership-in-the-first-subset
        subsets = [VertexSet.of([0, 1]), VertexSet.of([2, 3])]
        a, b = venn_refinement(4, subsets)
        assert a == (0,) and b == (1,)
        assert _intersection(4, subsets, a).bit_count() == 2
        assert _union(subsets, b).bit_count() == 2

    def test_all_equal_full(self):
        full = VertexSet.of(range(5))
        a, b = venn_refinement(5, [full, full, full])
        assert a == (0, 1, 2) and b == ()
        assert _union([full] * 3, b) == 0

    def test_single_empty_subset(self):
        a, b = venn_refinement(4, [VertexSet(0)])
        assert a == () and b == (0,)
        assert _intersection(4, [VertexSet(0)], a).bit_count() == 4

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_guarantees(self, data):
        n = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, 5))
        subsets = [
            VertexSet.of(data.draw(st.sets(st.integers(0, n - 1)))) for _ in range(k)
        ]
        a, b = venn_refinement(n, subsets)
        assert sorted(a + b) == list(range(k))
        assert _intersection(n, subsets, a).bit_count() >= n / 2**k
        assert _union(subsets, b).bit_count() <= (1 - 2**-k) * n


class TestMatchingRefinement:
    def test_two_disjoint_transversals(self):
        g = Graph(4, [(0, 1), (2, 3)])
        subsets = [VertexSet.of([0, 2]), VertexSet.of([1, 3])]
        ref = matching_refinement(g, subsets)
        assert ref.matching_size == 2
        unions = sorted(tuple(u) for _, u in ref.parts)
        assert unions == [(0, 2), (1, 3)]
        for _, u in ref.parts:
            assert u.cardinality <= g.n - 2**-2 * ref.matching_size

    def test_single_empty_subset_single_part(self):
        g = Graph(3, [(0, 1)])
        ref = matching_refinement(g, [VertexSet(0)])
        assert len(ref.parts) == 1
        assert ref.parts[0][1].mask == 0

    def test_unavailable_when_all_edges_covered(self):
        g = complete_graph(3)
        with pytest.raises(RefinementUnavailableError):
            matching_refinement(g, [VertexSet.of([0, 1, 2])])

    def test_part_union_bound_random(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(4, 16)
            g = random_regular_graph(n if (n * 3) % 2 == 0 else n + 1, 3, rng.randrange(10**6))
            k = rng.randint(1, 4)
            subsets = [
                VertexSet.of(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
                for _ in range(k)
            ]
            try:
                ref = matching_refinement(g, subsets)
            except RefinementUnavailableError:
                assert not greedy_matching(uncovered_edges(g, subsets))
                continue
            for _, u in ref.parts:
                assert u.cardinality <= g.n - 2**-k * ref.matching_size

    def test_greedy_matching_bound(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(6, 20)
            d = rng.choice([2, 3, 4])
            if n * d % 2:
                n += 1
            g = random_regular_graph(n, d, rng.randrange(10**6))
            m = greedy_matching(list(g.edges))
            assert len(m) >= g.m / (2 * g.max_degree)


class TestBoundaryIntersectionBound:
    def test_on_random_regular(self):
        # union of the boundary sets avoids the common neighborhood of the
        # fingerprints, giving |union B(F_i)| <= n - |intersection N(F_i)|
        rng = random.Random(2)
        for _ in range(50):
            n = rng.choice([10, 12, 14])
            d = rng.choice([3, 4])
            if n * d % 2:
                n += 1
            g = random_regular_graph(n, d, rng.randrange(10**6))
            params = ContainerParams(epsilon=0.49, d=float(d))
            isets = all_independent_sets(g)
            fps = [VertexSet(rng.choice(isets)) for _ in range(rng.randint(1, 4))]
            union_b = 0
            inter_n = (1 << g.n) - 1
            for f in fps:
                union_b |= boundary_set(g, f, params).mask
                inter_n &= g.neighborhood_mask(f.mask)
            assert union_b.bit_count() <= g.n - inter_n.bit_count()


class TestRegularPartitionCollection:
    def test_theorem_constants(self):
        g = random_regular_graph(10, 3, 1)
        coll = build_partition_collection_regular(g, 2)
        assert coll.low_degree  # d = 3 < d0
        assert coll.base.stats["vacuous"] is False
        assert coll.epsilon == pytest.approx(1 / 16)
        assert coll.stats["d0"] == 2 * 2**7

    def test_forced_c16_pair_cover_exhaustive(self):
        g = cycle_graph(16)
        coll = build_partition_collection_regular(g, 2, force=True)
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        located = {}
        for i in isets:
            located[i.mask] = coll.base.locate(i)
        # coverage depends only on the located containers, so it suffices to
        # check each multiset of located containers once
        distinct = sorted({c.mask for c in located.values()})
        ceiling = coll.size_ceiling
        for da, db in combinations_with_replacement(distinct, 2):
            ok = False
            for ua, ub in ((da | db, 0), (da, db), (0, da | db)):
                if ua.bit_count() <= ceiling and ub.bit_count() <= ceiling:
                    ok = True
                    break
            assert ok, (da, db)

    def test_cover_split_witness(self):
        g = cycle_graph(12)
        coll = build_partition_collection_regular(g, 3, force=True)
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        rng = random.Random(4)
        for _ in range(300):
            tup = [rng.choice(isets) for _ in range(3)]
            a, ca, cb = coll.cover_split(tup)
            for j in range(3):
                target = ca if j in a else cb
                assert target is not None and tup[j].issubset(target)
                assert target.cardinality <= coll.size_ceiling

    def test_materialize_contains_witnesses(self):
        g = cycle_graph(10)
        coll = build_partition_collection_regular(g, 2, force=True)
        members = {c.mask for c in coll.materialize()}
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        rng = random.Random(9)
        for _ in range(100):
            tup = [rng.choice(isets) for _ in range(2)]
            a, ca, cb = coll.cover_split(tup)
            for c in (ca, cb):
                if c is not None:
                    assert c.mask in members

    @pytest.mark.parametrize("n,d,k", [(10, 3, 1), (12, 4, 2), (10, 3, 3)])
    def test_materialize_is_every_union_under_the_ceiling(self, n, d, k):
        # the definition, by brute force: every union of 1..k base containers
        # under the ceiling is one candidate; members are the distinct unions
        # ordered by size, then by mask
        g = random_regular_graph(n, d, 5)
        coll = build_partition_collection_regular(g, k, force=True)
        base = list(coll.base.containers)
        candidates = [
            _union(base, combo)
            for j in range(1, k + 1)
            for combo in combinations(range(len(base)), j)
        ]
        candidates = [u for u in candidates if u.bit_count() <= coll.size_ceiling]
        expected = sorted(set(candidates), key=lambda u: (u.bit_count(), u))
        assert [c.mask for c in coll.materialize(limit=len(candidates))] == expected
        assert coll.stats["container_count"] == len(expected)
        # one candidate over the limit is refused, however the walk is ordered
        coll = build_partition_collection_regular(g, k, force=True)
        with pytest.raises(SizeLimitError):
            coll.materialize(limit=len(candidates) - 1)

    def test_non_regular_rejected(self):
        with pytest.raises(ParameterError):
            build_partition_collection_regular(Graph(3, [(0, 1)]), 2)


class TestAlmostRegularPartitionCollection:
    def test_epsilon_constant(self):
        g = random_regular_graph(12, 4, 2)
        coll = build_partition_collection_almost_regular(g, 2, 2.0)
        assert coll.epsilon == pytest.approx(1 / 32)

    def test_degree_ratio_violation(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])  # max degree 5, avg 5/3
        with pytest.raises(ParameterError):
            build_partition_collection_almost_regular(star, 2, 2.0)

    def test_cover_split_on_regular_instance(self):
        g = random_regular_graph(12, 4, 8)
        reg = build_partition_collection_regular(g, 2, force=True)
        alm = build_partition_collection_almost_regular(g, 2, 1.0)
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        rng = random.Random(1)
        for _ in range(200):
            tup = [rng.choice(isets) for _ in range(2)]
            for coll in (reg, alm):
                a, ca, cb = coll.cover_split(tup)
                for j in range(2):
                    target = ca if j in a else cb
                    assert target is not None and tup[j].issubset(target)
