import math
import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contsolve import partition
from contsolve.containers import ContainerCollection, ContainerParams, maximal_masks
from contsolve.core import (
    Graph,
    Hypergraph,
    ParameterError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    cycle_graph,
    random_graph,
    pack_fields,
    random_regular_graph,
)
from contsolve.partition import (
    PartitionContainerCollection,
    RefinementUnavailableError,
    build_partition_collection_almost_regular,
    build_partition_collection_regular,
    container_unions,
    greedy_matching,
    matching_refinement,
    uncovered_edges,
    venn_refinement,
)
from oracles import all_independent_sets, hypergraph_container


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


def _assert_materialize_is_every_union(collection, monkeypatch):
    # the definition, by brute force: every union of 1..k base containers
    # under the ceiling is one candidate; members are the distinct unions
    # ordered by size, then by mask
    coll = collection()
    base = list(coll.base.containers)
    candidates = [
        _union(base, combo)
        for j in range(1, coll.k + 1)
        for combo in combinations(range(len(base)), j)
    ]
    candidates = [u for u in candidates if u.bit_count() <= coll.size_ceiling]
    expected = sorted(set(candidates), key=lambda u: (u.bit_count(), u))
    monkeypatch.setattr(partition, "UNION_BUDGET", len(candidates))
    assert coll.materialize() == tuple(expected)
    assert coll.stats["container_count"] == len(expected)
    # one candidate over the budget is refused, however the walk is ordered
    monkeypatch.setattr(partition, "UNION_BUDGET", len(candidates) - 1)
    with pytest.raises(SizeLimitError):
        collection().materialize()


class TestContainerUnions:
    def test_fewest_skips_smaller_combinations_but_counts_them(self, monkeypatch):
        # brute force on both sides of PACKED_MIN_MASKS, at a width the
        # packed step takes and one over 64 bits, where only the loop holds
        # the masks; a packed walk ends on a batch, which holds the budget's
        # last candidate at least when no ceiling empties it
        rng = random.Random(31)
        low = partition.PACKED_MIN_MASKS
        cases = [(rng.randint(1, 6), 10, rng.randint(1, 4), math.inf) for _ in range(30)]
        cases += [
            (size, bits, count, ceiling)
            for size in (low - 1, low, low + 5)
            for bits in (12, 70)
            for count in (1, 2, 3)
            for ceiling in (math.inf, 0.6 * bits)
        ]
        binding = 0
        for size, bits, count, ceiling in cases:
            masks = [rng.getrandbits(bits) for _ in range(size)]
            sets = [VertexSet(m) for m in masks]
            fewest = rng.randint(1, count)
            combos = [
                combo
                for j in range(1, count + 1)
                for combo in combinations(range(size), j)
                if _union(sets, combo).bit_count() <= ceiling
            ]
            want = {_union(sets, combo) for combo in combos if len(combo) >= fewest}
            packs = []
            monkeypatch.setattr(partition, "pack_fields", lambda *a: packs.append(a) or pack_fields(*a))
            assert container_unions(masks, count, ceiling, fewest=fewest) == want
            packed = count > 1 and size >= low and bits <= 64
            assert bool(packs) == packed
            # a combination over the ceiling whose first count - 1 masks
            # are under it is refused inside a packed batch
            binding += packed and any(
                _union(sets, combo).bit_count() > ceiling >= _union(sets, combo[:-1]).bit_count()
                for combo in combinations(range(size), count)
            )
            monkeypatch.setattr(partition, "UNION_BUDGET", len(combos))
            container_unions(masks, count, ceiling, fewest=fewest)
            monkeypatch.setattr(partition, "UNION_BUDGET", len(combos) - 1)
            with pytest.raises(SizeLimitError):
                container_unions(masks, count, ceiling, fewest=fewest)
            monkeypatch.undo()
        assert binding >= 4

    def test_unions_of_the_most_containers_hold_every_maximal_union(self):
        rng = random.Random(32)
        for _ in range(60):
            masks = maximal_masks(rng.getrandbits(12) for _ in range(rng.randint(1, 7)))
            count = rng.randint(1, 5)
            fewest = min(count, len(masks))
            assert maximal_masks(container_unions(masks, count)) == maximal_masks(
                container_unions(masks, count, fewest=fewest)
            )


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
            h, tau = Hypergraph(g.n, 2, g.edges), ContainerParams(epsilon=0.49, d=float(d)).tau
            isets = all_independent_sets(g)
            fps = [VertexSet(rng.choice(isets)) for _ in range(rng.randint(1, 4))]
            union_b = 0
            inter_n = (1 << g.n) - 1
            for f in fps:
                union_b |= (hypergraph_container(h, f, tau) - f).mask
                neighbors = 0
                for v in f:
                    neighbors |= g.adj_mask[v]
                inter_n &= neighbors
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

    def test_cover_split_rejects_a_set_beyond_the_graph(self):
        coll = build_partition_collection_regular(cycle_graph(12), 3, force=True)
        with pytest.raises(ParameterError, match="vertex mask of the structure"):
            coll.cover_split([VertexSet(1), VertexSet(1 << 12), VertexSet(4)])

    def test_materialize_contains_witnesses(self):
        g = cycle_graph(10)
        coll = build_partition_collection_regular(g, 2, force=True)
        members = set(coll.materialize())
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        rng = random.Random(9)
        for _ in range(100):
            tup = [rng.choice(isets) for _ in range(2)]
            a, ca, cb = coll.cover_split(tup)
            for c in (ca, cb):
                if c is not None:
                    assert c.mask in members

    @pytest.mark.parametrize("n,d,k", [(10, 3, 1), (12, 4, 2), (10, 3, 3), (16, 4, 2)])
    def test_materialize_is_every_union_under_the_ceiling(self, n, d, k, monkeypatch):
        # (16, 4, 2) is a cli-size instance, whose hundreds of base
        # containers take the packed step
        g = random_regular_graph(n, d, 5)
        _assert_materialize_is_every_union(
            lambda: build_partition_collection_regular(g, k, force=True), monkeypatch
        )

    def test_materialize_over_64_bits_is_every_union_under_the_ceiling(self, monkeypatch):
        # masks wider than any array field: the loop enumerates them
        rng = random.Random(6)
        n = 80
        base = ContainerCollection(
            containers=tuple(VertexSet(rng.getrandbits(n)) for _ in range(partition.PACKED_MIN_MASKS + 6)),
            params=None,
            source="regular-graph",
        )
        _assert_materialize_is_every_union(
            lambda: PartitionContainerCollection(base=base, k=2, epsilon=0.25, n=n, source="regular"),
            monkeypatch,
        )

    def test_cover_split_fallback_uses_materialized_unions(self, monkeypatch):
        # every set locates to V, which is over the ceiling, so no split of
        # the located containers fits and the fallback must cover each side
        # with unions of the four pair containers
        n = 8
        full = VertexSet((1 << n) - 1)
        pairs = [VertexSet.of([v, v + 1]) for v in range(0, n, 2)]
        base = ContainerCollection(
            containers=(*pairs, full),
            params=None,
            source="regular-graph",
            locate=lambda independent: full,
        )

        def collection():
            return PartitionContainerCollection(base=base, k=2, epsilon=1 / 16, n=n, source="regular")

        coll = collection()
        assert full.cardinality > coll.size_ceiling
        tup = [VertexSet.of([0, 2]), VertexSet.of([5])]
        a, ca, cb = coll.cover_split(tup)
        # all three of {0, 2, 5} need three pairs, so the sets are split
        assert a == (0,)
        members = set(coll.materialize())
        for j, target in ((0, ca), (1, cb)):
            assert isinstance(target, VertexSet)
            assert target.mask in members and tup[j].issubset(target)
            assert target.cardinality <= coll.size_ceiling
        # 4 single pairs and 6 unions of two fit the ceiling: one fewer is refused
        fitting = [
            combo
            for j in (1, 2)
            for combo in combinations(range(len(base.containers)), j)
            if _union(base.containers, combo).bit_count() <= coll.size_ceiling
        ]
        assert len(fitting) == 10
        monkeypatch.setattr(partition, "UNION_BUDGET", len(fitting) - 1)
        with pytest.raises(SizeLimitError):
            collection().cover_split(tup)

    def test_cover_split_at_a_large_k_makes_splits_one_at_a_time(self, monkeypatch):
        # 2^40 splits could not all be made: the first is tried at once, and
        # a tuple no split fits is refused after UNION_BUDGET of them (kept
        # small here, as each split is a Python loop over k)
        n, k = 8, 40
        full = VertexSet((1 << n) - 1)
        pair = VertexSet.of([0, 1])

        def collection(located):
            base = ContainerCollection(
                containers=(pair, full),
                params=None,
                source="regular-graph",
                locate=lambda independent: located,
            )
            return PartitionContainerCollection(base=base, k=k, epsilon=1 / 16, n=n, source="regular")

        tup = [VertexSet.of([0])] * k
        assert collection(pair).cover_split(tup) == ((), None, pair)
        monkeypatch.setattr(partition, "UNION_BUDGET", 1000)
        with pytest.raises(SizeLimitError) as exc:
            collection(full).cover_split(tup)
        assert exc.value.stage == "partition-cover-split"

    def test_non_regular_rejected(self):
        with pytest.raises(ParameterError):
            build_partition_collection_regular(Graph(3, [(0, 1)]), 2)


class TestAlmostRegularPartitionCollection:
    def test_epsilon_constant(self):
        # a regular graph measures C = 1, so epsilon'' = 1/(C*2^(k+2)) is
        # the regular construction's 2^-(k+2)
        g = random_regular_graph(12, 4, 2)
        coll = build_partition_collection_almost_regular(g, 2)
        assert coll.epsilon == 1 / 16 and coll.stats["degree_ratio"] == 1
        for g in (g, cycle_graph(9), random_regular_graph(10, 3, 5)):
            for k in (1, 2, 3):
                regular = build_partition_collection_regular(g, k)
                assert build_partition_collection_almost_regular(g, k).epsilon == regular.epsilon

    def test_cover_split_on_irregular_graphs(self):
        # the ceiling reads the measured ratio C; the star K1,5 (C = 3) was
        # refused while C was an option defaulting to 2
        rng = random.Random(19)
        graphs = [Graph(6, [(0, i) for i in range(1, 6)])]
        while len(graphs) < 7:
            g = random_graph(10, rng.choice([0.3, 0.5]), rng.randrange(10**6))
            if g.m and not g.is_regular():
                graphs.append(g)
        for g in graphs:
            ratio = g.max_degree / g.average_degree
            isets = [VertexSet(m) for m in all_independent_sets(g)][:40]
            for k in (2, 3):
                coll = build_partition_collection_almost_regular(g, k)
                assert coll.stats["degree_ratio"] == ratio
                assert coll.size_ceiling == pytest.approx((1 - 1 / (ratio * 2 ** (k + 2))) * g.n)
                for tup in combinations_with_replacement(isets, k):
                    a, ca, cb = coll.cover_split(list(tup))
                    for j in range(k):
                        target = ca if j in a else cb
                        assert tup[j].issubset(target)
                        assert target.cardinality <= coll.size_ceiling

    def test_cover_split_on_regular_instance(self):
        g = random_regular_graph(12, 4, 8)
        reg = build_partition_collection_regular(g, 2, force=True)
        alm = build_partition_collection_almost_regular(g, 2)
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        rng = random.Random(1)
        for _ in range(200):
            tup = [rng.choice(isets) for _ in range(2)]
            for coll in (reg, alm):
                a, ca, cb = coll.cover_split(tup)
                for j in range(2):
                    target = ca if j in a else cb
                    assert target is not None and tup[j].issubset(target)
