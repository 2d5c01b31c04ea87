import dataclasses
import math
import random
import time
from functools import partial
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contsolve import partition
from contsolve.containers import (
    ContainerCollection,
    ContainerParams,
    build_almost_regular_collection,
    maximal_masks,
)
from contsolve.core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
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
    # under the ceiling is one candidate; members are the distinct unions,
    # in no order
    coll = collection()
    base = list(coll.base.containers)
    candidates = [
        _union(base, combo)
        for j in range(1, coll.k + 1)
        for combo in combinations(range(len(base)), j)
    ]
    candidates = [u for u in candidates if u.bit_count() <= coll.size_ceiling]
    monkeypatch.setattr(partition, "UNION_BUDGET", len(candidates))
    assert coll.materialize() == set(candidates)
    # one candidate over the budget is refused, however the walk is ordered
    monkeypatch.setattr(partition, "UNION_BUDGET", len(candidates) - 1)
    with pytest.raises(SizeLimitError):
        collection().materialize()


class TestContainerUnions:
    def test_unions_and_budget_match_brute_force(self, monkeypatch):
        # brute force from few masks to many, at a width the packed step
        # takes and one over 64 bits, where only the loop holds the masks; a
        # packed walk ends on a batch, which holds the budget's last
        # candidate at least when no ceiling empties it
        rng = random.Random(31)
        cases = [(rng.randint(1, 6), 10, rng.randint(1, 4), math.inf) for _ in range(30)]
        cases += [
            (size, bits, count, ceiling)
            for size in (23, 24, 29)
            for bits in (12, 70)
            for count in (1, 2, 3)
            for ceiling in (math.inf, 0.6 * bits)
        ]
        binding = 0
        for size, bits, count, ceiling in cases:
            masks = [rng.getrandbits(bits) for _ in range(size)]
            sets = [VertexSet(m) for m in masks]
            combos = [
                combo
                for j in range(1, count + 1)
                for combo in combinations(range(size), j)
                if _union(sets, combo).bit_count() <= ceiling
            ]
            want = {_union(sets, combo) for combo in combos}
            packs = []
            monkeypatch.setattr(partition, "pack_fields", lambda *a: packs.append(a) or pack_fields(*a))
            assert container_unions(masks, count, ceiling) == want
            packed = count > 1 and bits <= 64
            assert bool(packs) == packed
            # a combination over the ceiling whose first count - 1 masks
            # are under it is refused inside a packed batch
            binding += packed and any(
                _union(sets, combo).bit_count() > ceiling >= _union(sets, combo[:-1]).bit_count()
                for combo in combinations(range(size), count)
            )
            monkeypatch.setattr(partition, "UNION_BUDGET", len(combos))
            container_unions(masks, count, ceiling)
            monkeypatch.setattr(partition, "UNION_BUDGET", len(combos) - 1)
            with pytest.raises(SizeLimitError):
                container_unions(masks, count, ceiling)
            monkeypatch.undo()
        assert binding >= 4

    def test_no_masks_have_no_unions(self):
        for count in (1, 2, 3):
            assert container_unions([], count) == set()

    def test_unions_of_the_most_containers_hold_every_maximal_union(self):
        rng = random.Random(32)
        cases = []
        for _ in range(60):
            masks = maximal_masks(rng.getrandbits(12) for _ in range(rng.randint(1, 7)))
            cases.append((masks, rng.randint(1, 5)))
        # the 59 maximal containers of an 8-regular graph's collection: the
        # unions of 1..3 of them, 34,279, are within UNION_BUDGET
        g = random_regular_graph(20, 8, 1)
        base = maximal_masks(c.mask for c in build_almost_regular_collection(g).containers)
        assert len(base) == 59
        cases += [(base, 2), (base, 3)]
        for masks, count in cases:
            sets = [VertexSet(m) for m in masks]
            most = combinations(range(len(masks)), min(count, len(masks)))
            assert maximal_masks(container_unions(masks, count)) == maximal_masks(
                _union(sets, combo) for combo in most
            )
        # the 489,405 unions of 1..4 are over it
        with pytest.raises(SizeLimitError):
            container_unions(base, 4)


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
        with pytest.raises(PreconditionError):
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
            except PreconditionError:
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

    def test_forced_build_on_an_edgeless_graph_is_low_degree(self):
        # the forced base of an edgeless graph is flagged, with no
        # containers, so the partition collection has no unions either
        coll = build_partition_collection_regular(Graph(3, []), 1, force=True)
        assert coll.low_degree and len(coll.base) == 0
        assert coll.base.low_degree and coll.base.stats["note"] == "edgeless"

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
        members = coll.materialize()
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
            containers=tuple(VertexSet(rng.getrandbits(n)) for _ in range(30)),
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
        members = coll.materialize()
        for j, target in ((0, ca), (1, cb)):
            assert isinstance(target, VertexSet)
            assert target.mask in members and tup[j].issubset(target)
            assert target.cardinality <= coll.size_ceiling
            # the smallest covering union, by size, then by mask
            covering = [c for c in members if not tup[j].mask & ~c]
            assert target.mask == min(covering, key=lambda c: (c.bit_count(), c))
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

    def test_cover_split_fallback_on_a_built_collection(self):
        # a built collection whose 817 members pass no budget, given a base
        # that locates every set to V: V is over the ceiling, so every split
        # of the located containers overflows and each pair of independent
        # sets takes the fallback. On this graph each pair's union fits one
        # member, so every witness is the first split, A empty
        g = random_regular_graph(12, 4, 1)
        coll = build_partition_collection_regular(g, 2, force=True)
        full = VertexSet((1 << g.n) - 1)
        coll = dataclasses.replace(coll, base=dataclasses.replace(coll.base, locate=lambda independent: full))
        assert full.cardinality > coll.size_ceiling
        members = coll.materialize()
        assert len(members) == 817 < partition.UNION_BUDGET
        ranked = sorted(members, key=lambda c: (c.bit_count(), c))
        isets = [VertexSet(m) for m in all_independent_sets(g)]
        for tup in combinations_with_replacement(isets, 2):
            a, ca, cb = coll.cover_split(list(tup))
            assert a == ()
            for group, container in ((a, ca), ((0, 1), cb)):
                if not group:
                    assert container is None
                    continue
                target = _union(tup, group)
                # the smallest member by (size, mask) holding the group's union
                assert container.mask == next(c for c in ranked if not target & ~c)
                assert not target & ~container.mask

    def test_cover_split_refusals_are_precondition_errors(self):
        # a base with no locator, and a tuple that no union of at most two
        # pair containers covers on either side of any split
        n = 8
        full = VertexSet((1 << n) - 1)
        pairs = tuple(VertexSet.of([v, v + 1]) for v in range(0, n, 2))
        tup = [VertexSet.of([0, 2, 4])] * 2
        for locate, message in ((None, "base collection has no locator"),
                                (lambda independent: full, "no split of the tuple fits any container pair")):
            base = ContainerCollection(containers=pairs, params=None, source="regular-graph", locate=locate)
            coll = PartitionContainerCollection(base=base, k=2, epsilon=1 / 16, n=n, source="regular")
            with pytest.raises(PreconditionError, match=message):
                coll.cover_split(tup)

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


class TestTupleSizeBound:
    def test_k_past_the_bound_is_refused_before_any_power_of_two(self, monkeypatch):
        # 2^(k+2) as a float overflows from k = 1022, and the regular degree
        # floor k*2^(2k+3) passes 4,300 digits from about k = 7,140; both
        # builders refuse such k before forming either, so at once
        g = random_regular_graph(12, 4, 1)
        monkeypatch.setattr(partition, "build_regular_collection", None)
        monkeypatch.setattr(partition, "build_almost_regular_collection", None)
        for k in (partition.MAX_K + 1, 537, 1022, 8000, 10**8, 10**30):
            for build in (
                partial(build_partition_collection_regular, force=True),
                build_partition_collection_regular,
                build_partition_collection_almost_regular,
            ):
                started = time.monotonic()
                with pytest.raises(ParameterError, match=f"at most {partition.MAX_K}"):
                    build(g, k)
                assert time.monotonic() - started < 0.1

    def test_k_at_the_bound_builds(self):
        # the size ceiling (1 - 2^-(k+2))n stays below n, and a forced base
        # build at epsilon 2^-(k+1) walks at tau 1
        g = random_regular_graph(12, 4, 1)
        k = partition.MAX_K
        flagged = build_partition_collection_regular(g, k)
        assert flagged.low_degree and flagged.stats["d0"] == k * 2 ** (2 * k + 3)
        forced = build_partition_collection_regular(g, k, force=True)
        assert forced.base.stats["tau"] == 1 and not forced.low_degree
        almost = build_partition_collection_almost_regular(g, k)
        for coll in (flagged, forced, almost):
            assert g.n - 1 < coll.size_ceiling < g.n


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
