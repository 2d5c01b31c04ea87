import random
import tracemalloc
from array import array
from math import prod

import pytest

from contsolve import coloring
from contsolve.coloring import (
    ColoringConfig,
    _signed_table,
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
from oracles import (
    all_independent_sets,
    count_ordered_covers,
    is_counts_lowest_bit,
    is_k_colorable,
)


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

    def test_domain_beyond_the_graph_rejected(self):
        g = cycle_graph(8)
        with pytest.raises(ParameterError, match="vertex mask of the graph"):
            count_is_dp(g, VertexSet(1 << 9))

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
        g = Graph(25, [])
        with pytest.raises(SizeLimitError):
            count_is_dp(g, _full(g))

    def test_field_width_boundaries(self):
        # a table takes the narrowest of 8-, 16- and 32-bit fields that holds
        # its largest count i(V). An edgeless domain of w vertices counts
        # 2^w: 1, 2 and 4 bytes at w = 0-7, 8-15 and 16-17
        rng = random.Random(24)
        for w, itemsize in ((0, 1), (1, 1), (7, 1), (8, 2), (15, 2), (16, 4), (17, 4)):
            g = Graph(w, [])
            table = count_is_dp(g, _full(g))
            assert (table.counts[-1], table.counts.itemsize) == (1 << w, itemsize)
            assert list(table.counts) == is_counts_lowest_bit(g, (1 << w) - 1)
            g = random_graph(w, rng.uniform(0.1, 0.6), rng.randrange(10**6))
            table = count_is_dp(g, _full(g))
            top = table.counts[-1]
            assert table.counts.itemsize == (1 if top < 256 else 2 if top < 65536 else 4)
            assert list(table.counts) == is_counts_lowest_bit(g, (1 << w) - 1)
        # the other sides of 256 and of 65,536, the edgeless w = 8 and 16
        # above, whatever w: a perfect matching on 2m vertices counts 3^m
        for g, top, itemsize in (
            (Graph(8, [(0, 1)]), 192, 1),
            (random_regular_graph(14, 6, 1), 117, 1),
            (random_regular_graph(20, 1, 1), 3**10, 2),
        ):
            table = count_is_dp(g, _full(g))
            assert (table.counts[-1], table.counts.itemsize) == (top, itemsize)
            assert table.counts == array(table.counts.typecode, is_counts_lowest_bit(g, (1 << g.n) - 1))
        # 3^11 in 32-bit fields; its 2^22 entries are checked at a sample,
        # against the matching's product of 1, 2 or 3 per edge
        g = random_regular_graph(22, 1, 1)
        table = count_is_dp(g, _full(g))
        assert (table.counts[-1], table.counts.itemsize) == (3**11, 4)
        for s in [rng.getrandbits(22) for _ in range(2000)]:
            assert table.counts[s] == prod(1 + (s >> u & 1) + (s >> v & 1) for u, v in g.edges)

    def test_mask_cache_stays_in_its_byte_bound(self, monkeypatch):
        g = random_graph(20, 0.3, 5)
        table = count_is_dp(g, _full(g))
        isets = all_independent_sets(g)
        assert table.counts[-1] == len(isets)
        rng = random.Random(25)
        for mask in [rng.getrandbits(20) for _ in range(20)]:
            assert table.counts[mask] == sum(1 for m in isets if not m & ~mask)
        # every mask the cache can hold: a field mask per width and index
        # bit b whose block fits MASK_CACHE_BYTES, met here by a vertex
        # adjacent to every lower one, and a bit-plane tally's three
        # transpose masks and odd-parity mask, cached at up to 2^15 entries.
        # b runs below 15 at 8 bits and below 14 at 16 bits; a build widens
        # to 16 bits only once a count passes 255, at block 7 or later. It
        # widens to 32 only once one passes 65,535, at block 15 or later,
        # whose 2^15 fields of 4 bytes are past the cache, so no 32-bit
        # mask is kept
        monkeypatch.setattr(coloring, "_masks", {})
        k16 = complete_graph(16)  # i(V) = 17
        star = Graph(15, [(v, 14) for v in range(14)])  # 2^14 + 1
        hub = Graph(18, [(v, 17) for v in range(17)])  # 2^17 + 1
        for g, itemsize in ((k16, 1), (star, 2), (hub, 4)):
            assert count_is_dp(g, _full(g)).itemsize == itemsize
        inclusion_exclusion_F(complete_graph(15), 3)
        assert len(coloring._masks) == 15 + 14 + 4 == 33
        assert (32, 0) not in coloring._masks
        assert all(m.bit_length() <= 8 * coloring.MASK_CACHE_BYTES for m in coloring._masks.values())

    def test_widening_in_the_last_blocks(self):
        # a count that passes the field widens the blocks built so far in
        # place, and the block is built again at twice the width. These
        # tables pass 255 or 65,535 only at the given block, i(V) being the
        # largest count
        for g, limit, block, itemsize in (
            (random_regular_graph(14, 4, 3), 255, 13, 2),  # i(V) = 261
            (random_regular_graph(19, 8, 1), 255, 18, 2),  # 278
            (Graph(17, [(0, 1)]), 65535, 16, 4),  # 3 * 2^15
            (random_graph(18, 0.06, 14), 65535, 17, 4),  # 69,120
        ):
            counts = is_counts_lowest_bit(g, (1 << g.n) - 1)
            # the top count of block j is i(G[0..j]), at index 2^(j+1) - 1
            assert min(j for j in range(g.n) if counts[(2 << j) - 1] > limit) == block
            table = count_is_dp(g, _full(g))
            assert table.itemsize == table.counts.itemsize == itemsize
            assert table.counts == array(table.counts.typecode, counts)

    def test_byte_budget_refuses_before_building(self, monkeypatch):
        # IS_TABLE_PEAK_FACTOR times the array's bytes: 2-byte fields, so a
        # domain of 10 needs 3 * 2 * 2^10 bytes
        monkeypatch.setattr(coloring, "MEMORY_BUDGET_BYTES", coloring.IS_TABLE_PEAK_FACTOR * 2 << 10)
        count_is_dp(Graph(10, []), _full(Graph(10, [])))
        monkeypatch.setattr(coloring, "_restricted", None)
        with pytest.raises(SizeLimitError) as exc:
            count_is_dp(Graph(11, []), _full(Graph(11, [])))
        assert exc.value.stage == "is-count-table"

    def test_default_budget_refuses_domains_over_24(self, monkeypatch):
        def started(*args):
            raise RuntimeError("the build started")

        monkeypatch.setattr(coloring, "_restricted", started)
        with pytest.raises(RuntimeError):
            count_is_dp(Graph(24, []), _full(Graph(24, [])))
        for n in (25, 26):
            g = Graph(n, [])
            with pytest.raises(SizeLimitError) as exc:
                count_is_dp(g, _full(g))
            assert exc.value.stage == "is-count-table" and "bytes" in str(exc.value)


class TestKernelsAgainstTheLowestBitRecurrence:
    def test_tables_on_random_domains(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randint(0, 12)
            g = random_graph(n, rng.random(), rng.randrange(10**6))
            domain = rng.getrandbits(n) if n else 0
            table = count_is_dp(g, VertexSet(domain))
            assert table.order == tuple(VertexSet(domain))
            assert list(table.counts) == is_counts_lowest_bit(g, domain)
        assert list(count_is_dp(Graph(5, []), VertexSet(0)).counts) == [1]

    def test_tables_on_n16_shapes(self):
        # a star centred at 0 gives every later block one collapse, at bit 0,
        # and a hub at n - 1 gives the last block 15; the path, the empty
        # and the complete graph give one, none and every collapse per block
        n = 16
        shapes = [
            Graph(n, [(0, v) for v in range(1, n)]),
            Graph(n, [(v, n - 1) for v in range(n - 1)]),
            Graph(n, [(v, v + 1) for v in range(n - 1)]),
            Graph(n, []),
            complete_graph(n),
        ]
        for g in shapes:
            assert list(count_is_dp(g, _full(g)).counts) == is_counts_lowest_bit(g, (1 << n) - 1)

    def test_F_is_the_direct_signed_sum(self):
        # an i(V) below 256 takes the bit-plane tally, one of 256 or more the
        # Counter; up to n = 2 the table is shorter than one 64-bit word
        rng = random.Random(22)
        graphs = [Graph(8, []), Graph(8, [(0, 1)])]  # i(V) = 256 and 192
        for n in range(17):
            graphs += [random_graph(n, p, rng.randrange(10**6)) for p in (0.2, 0.5, 0.8)]
        sides = set()
        for g in graphs:
            counts = is_counts_lowest_bit(g, (1 << g.n) - 1)
            sides.add((g.n > 8, counts[-1] < 256))
            for k in range(1, 9):
                direct = sum(
                    (-1) ** (g.n - m.bit_count()) * c**k for m, c in enumerate(counts)
                )
                assert inclusion_exclusion_F(g, k) == direct
        assert sides == {(False, True), (False, False), (True, True), (True, False)}

    def test_which_tally_runs(self, monkeypatch):
        def counter(*args):
            raise RuntimeError("the Counter tally ran")

        monkeypatch.setattr(coloring, "Counter", counter)
        g = random_regular_graph(14, 6, 1)
        assert count_is_dp(g, _full(g)).counts[-1] == 117
        assert not solve_kcoloring(g, 3).colorable and solve_kcoloring(g, 4).colorable
        g = random_regular_graph(16, 3, 1)
        assert count_is_dp(g, _full(g)).counts[-1] == 988
        with pytest.raises(RuntimeError, match="Counter"):
            inclusion_exclusion_F(g, 3)

    def test_bit_plane_tally_reads_the_packed_table(self, monkeypatch):
        # a 1-byte table's sum takes its bit planes from the packed int the
        # build returned, so no array is unpacked
        def unpacked(*args):
            raise AssertionError("the table was unpacked")

        monkeypatch.setattr(coloring, "unpack_fields", unpacked)
        rng = random.Random(26)
        for n in range(17):
            g = random_graph(n, 0.75, rng.randrange(10**6))
            counts = is_counts_lowest_bit(g, (1 << n) - 1)
            assert counts[-1] < 256
            for k in (2, 3, 5):
                direct = sum((-1) ** (n - m.bit_count()) * c**k for m, c in enumerate(counts))
                assert inclusion_exclusion_F(g, k) == direct

    def test_sum_peak_stays_in_the_byte_budget(self):
        # the budget counts the fields 2^w needs, 32 bits at w = 16. The
        # masks kept between calls are bounded apart (MASK_CACHE_BYTES), so
        # each sum is traced on its second run
        budget = coloring.IS_TABLE_PEAK_FACTOR * 4 << 16
        for g, itemsize in ((random_graph(16, 0.7, 1), 1), (random_regular_graph(16, 1, 1), 2),
                            (Graph(16, []), 4)):
            assert count_is_dp(g, _full(g)).itemsize == itemsize
            want = inclusion_exclusion_F(g, 3)
            tracemalloc.start()
            try:
                assert inclusion_exclusion_F(g, 3) == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < budget, (itemsize, peak / budget)

    def test_signed_table_is_its_per_entry_formula(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng.randrange(10**6))
            container = VertexSet(rng.getrandbits(n))
            fresh = container.mask & rng.getrandbits(n)
            order, signed = _signed_table(g, container, fresh)
            counts = is_counts_lowest_bit(g, container.mask)
            local = [j for j, v in enumerate(order) if (fresh >> v) & 1]
            assert order == tuple(container)
            assert list(signed) == [
                (-1) ** sum((m >> j) & 1 for j in local) * c for m, c in enumerate(counts)
            ]


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

    def test_vertex_outside_the_graph_rejected(self):
        # the extra bit would make the union unequal to V, and the count 0
        g = cycle_graph(4)
        assert constrained_F(g, [_full(g)] * 2) == 2
        with pytest.raises(ParameterError):
            constrained_F(g, [VertexSet(0b11111)] * 2)

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
        cfg = ColoringConfig(mode="containers")
        for _ in range(12):
            n = rng.randint(8, 12)
            g = random_graph(n, 0.7, rng.randrange(10**6))
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

    def test_certificate(self, monkeypatch):
        # every sum the certificate runs is on a contracted graph of at most
        # n - 1 vertices; only the decision's whole-V sum reads g itself
        sums = []
        real = coloring.inclusion_exclusion_F
        monkeypatch.setattr(coloring, "inclusion_exclusion_F", lambda h, k: sums.append(h) or real(h, k))
        rng = random.Random(14)
        cases = []
        for _ in range(10):
            g = random_graph(rng.randint(3, 9), 0.5, rng.randrange(10**6))
            chi = next(k for k in range(1, g.n + 1) if is_k_colorable(g, k))
            cases += [(g, chi), (g, chi + 1)]
        # colorable at these k; a sum on n + k vertices would take seconds on
        # the first two and be over the byte budget on the other three
        cases += [(random_graph(14, 0.5, 1), 5), (random_graph(16, 0.5, 1), 4),
                  (random_graph(20, 0.5, 1), 7), (random_graph(22, 0.5, 1), 7),
                  (random_regular_graph(20, 8, 1), 5)]
        for g, k in cases:
            for mode in ("baseline", "containers"):
                sums.clear()
                result = solve_kcoloring(g, k, ColoringConfig(mode=mode, certificate=True))
                assert result.colorable and is_k_colorable(g, k)
                cert = result.certificate
                assert cert is not None and set(cert) == set(range(g.n))
                assert set(cert.values()) <= set(range(k))
                for u, v in g.edges:
                    assert cert[u] != cert[v]
                assert sum(h is g for h in sums) <= 1
                assert all(h.n <= g.n - 1 for h in sums if h is not g)

    def test_k_past_n_decides_and_certifies_as_k_equal_n(self, monkeypatch):
        # n colors always suffice, so a huge k answers as k = n does, and no
        # sum raises its counts to a power past n
        powers = []
        real = coloring.inclusion_exclusion_F
        monkeypatch.setattr(coloring, "inclusion_exclusion_F", lambda h, k: powers.append(k) or real(h, k))
        for g in (petersen_graph(), complete_graph(5), random_graph(9, 0.5, 3), random_regular_graph(14, 4, 1)):
            for mode in ("baseline", "containers"):
                config = ColoringConfig(mode=mode, certificate=True)
                at_n = solve_kcoloring(g, g.n, config)
                powers.clear()
                huge = solve_kcoloring(g, 10**9, config)
                assert powers and max(powers) <= g.n
                assert huge.k == 10**9 and huge.colorable and at_n.colorable
                assert huge.certificate == at_n.certificate is not None
        assert solve_kcoloring(Graph(0, []), 10**9).colorable

    def test_whole_v_dispatch_matches_ie_sum_and_oracle(self):
        # G(14, p) with k just below and at chi, and a 20-vertex 8-regular
        # graph (chi = 5) up to k = 7: the whole-V sum decides in every
        # mode, and the stats name only the mode
        rng = random.Random(17)
        graphs = [random_graph(14, (0.5, 0.6, 0.7)[i % 3], rng.randrange(10**6)) for i in range(24)]
        for g in graphs + [random_regular_graph(20, 8, 1)]:
            chi = next(k for k in range(1, g.n + 1) if is_k_colorable(g, k))
            for k in range(chi - 1, chi + 1 if g.n < 20 else 8):
                want = inclusion_exclusion_F(g, k) > 0
                assert want == (k >= chi)
                for mode in ("baseline", "containers"):
                    result = solve_kcoloring(g, k, ColoringConfig(mode=mode))
                    assert result.colorable == want and result.stats == {"path": mode}

    def test_k2_answers_match_the_oracle_in_every_mode(self):
        # G(14, 0.5, 0) and G(20, 0.5, 62443) are not 2-colorable, the second
        # at a whole-V sum of 2^20 subsets; a dense bipartite graph is
        rng = random.Random(935784)
        bipartite = Graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                               if (u - v) % 2 and rng.random() < 0.7])
        for g, want in ((random_graph(14, 0.5, 0), False), (random_graph(20, 0.5, 62443), False),
                        (bipartite, True)):
            assert is_k_colorable(g, 2) == want
            for mode in ("baseline", "containers", "auto"):
                assert solve_kcoloring(g, 2, ColoringConfig(mode=mode)).colorable == want

    def test_whole_v_sum_keeps_the_baseline_ceiling(self, monkeypatch):
        # the container path's whole-V sum refuses these graphs as the
        # baseline does, by the table's byte budget, before any table is
        # started
        def started(*args):
            raise AssertionError("a table was started")

        monkeypatch.setattr(coloring, "_restricted", started)
        for n, seed in ((25, 1), (26, 1), (27, 0)):
            g = random_graph(n, 0.7, seed)
            for mode in ("baseline", "containers", "auto"):
                with pytest.raises(SizeLimitError) as exc:
                    solve_kcoloring(g, 3, ColoringConfig(mode=mode))
                assert exc.value.stage == "inclusion-exclusion" and "bytes" in str(exc.value)

    def test_pairs_with_sides_extsum_cannot_take_are_unpayable(self, monkeypatch):
        # G(40, 0.2) at k=2: every covering pair of sides has one of at
        # least 20 vertices, and no mode prices pairs; the whole-V sum over
        # all 40 refuses by its byte budget before any IS-count table past
        # 24 vertices is built
        real = coloring.count_is_dp

        def bounded(g, domain):
            assert domain.cardinality <= 24
            return real(g, domain)

        monkeypatch.setattr(coloring, "count_is_dp", bounded)
        g = random_graph(40, 0.2, 1)
        for mode in ("auto", "containers"):
            with pytest.raises(SizeLimitError) as exc:
                solve_kcoloring(g, 2, ColoringConfig(mode=mode))
            assert exc.value.stage == "inclusion-exclusion"

    def test_containers_path_on_edgeless_graphs(self):
        for g in (Graph(0, []), Graph(3, [])):
            for k in (1, 2):
                want = solve_kcoloring(g, k, ColoringConfig(mode="baseline")).colorable
                got = solve_kcoloring(g, k, ColoringConfig(mode="containers"))
                assert want and got.colorable == want
        # every mode answers k = 1 and edgeless graphs without a sum, past
        # the whole-V sum's 24-vertex ceiling too
        for mode in ("baseline", "containers", "auto"):
            config = ColoringConfig(mode=mode)
            assert solve_kcoloring(Graph(30, []), 3, config).colorable
            assert not solve_kcoloring(random_graph(30, 0.2, 1), 1, config).colorable

    def test_auto_dispatch(self):
        # auto takes the container path, sparse or dense
        rng = random.Random(18)
        graphs = [cycle_graph(8), complete_graph(10), random_graph(20, 0.5, 62443)]
        graphs += [random_graph(12, rng.choice((0.1, 0.3, 0.6)), rng.randrange(10**6)) for _ in range(8)]
        for g in graphs:
            for k in (2, 3):
                auto = solve_kcoloring(g, k)
                containers = solve_kcoloring(g, k, ColoringConfig(mode="containers"))
                assert auto.stats == containers.stats and auto.stats["path"] == "containers"
                assert auto.colorable == containers.colorable == is_k_colorable(g, k)

    def test_refuses_above_48_vertices_before_building(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("an IS-count table was built")

        monkeypatch.setattr(coloring, "count_is_dp", no_build)
        g = random_graph(1000, 0.004, 1)
        for mode in ("auto", "containers"):
            with pytest.raises(SizeLimitError) as exc:
                solve_kcoloring(g, 3, ColoringConfig(mode=mode))
            assert exc.value.stage == "inclusion-exclusion"
        # the k = 1 and edgeless shortcuts still answer
        assert not solve_kcoloring(g, 1).colorable
        assert solve_kcoloring(Graph(1000, []), 3).colorable

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            solve_kcoloring(cycle_graph(4), 0)
