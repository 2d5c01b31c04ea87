import random

import pytest

from contsolve.coloring import (
    ColoringConfig,
    constrained_F,
    count_is_dp,
    inclusion_exclusion_F,
    solve_kcoloring,
)
from contsolve.core import (
    Graph,
    ParameterError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
    random_regular_graph,
)
from oracles import all_independent_sets, count_ordered_covers, is_k_colorable


def _full(g):
    return VertexSet((1 << g.n) - 1)


class TestCountIsDp:
    def test_empty_graph(self):
        g = Graph(3, [])
        table = count_is_dp(g, _full(g))
        assert table.counts[-1] == 8

    def test_triangle(self):
        table = count_is_dp(complete_graph(3), _full(complete_graph(3)))
        assert table.counts[-1] == 4

    def test_c4(self):
        g = cycle_graph(4)
        assert count_is_dp(g, _full(g)).counts[-1] == 7

    def test_matches_brute_force_on_subdomains(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(8, 0.4, rng.randrange(10**6))
            domain = VertexSet.of(rng.sample(range(8), rng.randint(0, 8)))
            table = count_is_dp(g, domain)
            for local in range(1 << len(table.order)):
                mask = 0
                for j, v in enumerate(table.order):
                    if (local >> j) & 1:
                        mask |= 1 << v
                brute = sum(
                    1 for m in all_independent_sets(g) if m & ~mask == 0
                )
                assert table.counts[local] == brute

    def test_ceiling(self):
        g = Graph(31, [])
        with pytest.raises(SizeLimitError):
            count_is_dp(g, _full(g))


class TestSignCancellation:
    def test_interval_sums(self):
        # sum of (-1)^|S| over S between S1 and S2 vanishes unless S1 = S2
        from itertools import combinations

        for n2 in range(0, 11):
            s2 = frozenset(range(n2))
            for sz in range(n2 + 1):
                for s1 in [frozenset(c) for c in combinations(sorted(s2), sz)][:20]:
                    free = sorted(s2 - s1)
                    total = 0
                    for pick in range(1 << len(free)):
                        s = set(s1)
                        for j, v in enumerate(free):
                            if (pick >> j) & 1:
                                s.add(v)
                        total += (-1) ** len(s)
                    if s1 == s2:
                        assert total == (-1) ** len(s2)
                    else:
                        assert total == 0


class TestInclusionExclusionF:
    def test_k2_pair(self):
        assert inclusion_exclusion_F(complete_graph(2), 2) == 2

    def test_odd_cycle_not_two_colorable(self):
        assert inclusion_exclusion_F(complete_graph(3), 2) == 0

    def test_single_vertex(self):
        assert inclusion_exclusion_F(Graph(1, []), 1) == 1

    def test_matches_ordered_cover_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            for k in (1, 2, 3):
                assert inclusion_exclusion_F(g, k) == count_ordered_covers(g, k)

    def test_positive_iff_colorable(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.45, rng.randrange(10**6))
            for k in (2, 3):
                assert (inclusion_exclusion_F(g, k) > 0) == is_k_colorable(g, k)


class TestConstrainedF:
    def test_k2_split_containers(self):
        g = complete_graph(2)
        assert constrained_F(g, [VertexSet.of([0]), VertexSet.of([1])]) == 1

    def test_coverage_shortfall_is_zero(self):
        g = cycle_graph(4)
        assert constrained_F(g, [VertexSet.of([0, 1]), VertexSet.of([2])]) == 0

    def test_c4_bipartition(self):
        g = cycle_graph(4)
        assert constrained_F(g, [VertexSet.of([0, 2]), VertexSet.of([1, 3])]) == 1

    def test_matches_brute_force_random_containers(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            k = rng.randint(1, 3)
            containers = []
            for _ in range(k):
                containers.append(
                    VertexSet.of(rng.sample(range(n), rng.randint(0, n)))
                )
            want = count_ordered_covers(g, k, [c.mask for c in containers])
            assert constrained_F(g, containers) == want

    def test_full_containers_equal_unconstrained(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.4, rng.randrange(10**6))
            k = rng.randint(1, 3)
            assert constrained_F(g, [_full(g)] * k) == inclusion_exclusion_F(g, k)


class TestSolveKColoring:
    def test_petersen(self):
        g = petersen_graph()
        assert solve_kcoloring(g, 3).colorable
        assert not solve_kcoloring(g, 2).colorable

    def test_baseline_matches_oracle(self):
        rng = random.Random(11)
        cfg = ColoringConfig(mode="baseline")
        for _ in range(30):
            n = rng.randint(3, 12)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            for k in (2, 3):
                assert solve_kcoloring(g, k, cfg).colorable == is_k_colorable(g, k)

    def test_containers_path_matches_oracle(self):
        rng = random.Random(12)
        cfg = ColoringConfig(mode="containers", degree_ratio=3.0)
        for _ in range(12):
            n = rng.randint(8, 12)
            g = random_graph(n, 0.7, rng.randrange(10**6))
            if g.m == 0 or g.max_degree > 3.0 * g.average_degree:
                continue
            for k in (3, 4):
                result = solve_kcoloring(g, k, cfg)
                assert result.stats["path"] == "containers"
                assert result.colorable == is_k_colorable(g, k)

    def test_regular_both_paths(self):
        rng = random.Random(13)
        for _ in range(6):
            g = random_regular_graph(12, 6, rng.randrange(10**6))
            for k in (2, 3, 4):
                want = is_k_colorable(g, k)
                assert solve_kcoloring(g, k, ColoringConfig(mode="baseline")).colorable == want
                assert solve_kcoloring(g, k, ColoringConfig(mode="containers")).colorable == want

    def test_certificate(self):
        rng = random.Random(14)
        cfg = ColoringConfig(mode="baseline", certificate=True)
        for _ in range(10):
            g = random_graph(rng.randint(3, 9), 0.5, rng.randrange(10**6))
            result = solve_kcoloring(g, 3, cfg)
            if result.colorable:
                cert = result.certificate
                assert cert is not None and set(cert) == set(range(g.n))
                for u, v in g.edges:
                    assert cert[u] != cert[v]

    def test_whole_v_dispatch_matches_ie_sum_and_oracle(self):
        # G(14, p) with k just below and at chi: when the priced pairs cost at
        # least the whole-V sum, that sum alone decides
        rng = random.Random(17)
        cfg = ColoringConfig(mode="containers", degree_ratio=3.0)
        informative = 0
        for i in range(24):
            g = random_graph(14, (0.5, 0.6, 0.7)[i % 3], rng.randrange(10**6))
            chi = next(k for k in range(1, g.n + 1) if is_k_colorable(g, k))
            for k in (chi - 1, chi):
                result = solve_kcoloring(g, k, cfg)
                stats = result.stats
                assert result.colorable == (k >= chi)
                assert stats["whole_cost"] == 1 << g.n
                if stats["dispatch"] == "pairs":
                    assert stats["pair_cost"] < stats["whole_cost"]
                    continue
                assert stats["dispatch"] == "whole-V"
                assert stats["pair_cost"] >= stats["whole_cost"]
                assert stats["pairs_tested"] == 0
                assert result.colorable == (inclusion_exclusion_F(g, k) > 0)
                # a collection holding V is {V}, so more than one base
                # container means the walk found real fingerprints
                informative += stats["base_containers"] > 1
        assert informative >= 20

    def test_priced_pairs_reach_the_pair_loop(self):
        cfg = ColoringConfig(mode="containers", degree_ratio=3.0)
        # below chi on G(14, 0.8): six pair tests, all negative
        g = random_graph(14, 0.8, 795664)
        result = solve_kcoloring(g, 3, cfg)
        assert result.stats["dispatch"] == "pairs" and result.stats["pairs_tested"] == 6
        assert result.stats["pair_cost"] < result.stats["whole_cost"]
        assert not result.colorable and not is_k_colorable(g, 3)
        # G(20, 0.5) at k=2: no pair of candidates covers V, so the pair
        # branch decides with no test where the whole-V sum walks 2^20 subsets
        g = random_graph(20, 0.5, 62443)
        result = solve_kcoloring(g, 2, cfg)
        assert result.stats["dispatch"] == "pairs" and result.stats["pair_cost"] == 0
        assert result.stats["pairs_tested"] == 0
        assert not result.colorable and not is_k_colorable(g, 2)
        # a dense bipartite graph: the first covering pair is positive
        rng = random.Random(935784)
        g = Graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                       if (u - v) % 2 and rng.random() < 0.7])
        result = solve_kcoloring(g, 2, cfg)
        assert result.stats["dispatch"] == "pairs" and result.stats["pairs_tested"] == 1
        assert result.colorable

    def test_auto_dispatch(self):
        sparse = cycle_graph(8)
        assert solve_kcoloring(sparse, 2).stats["path"] == "baseline"
        dense = complete_graph(10)
        assert solve_kcoloring(dense, 10).stats["path"] == "containers"

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            solve_kcoloring(cycle_graph(4), 0)
