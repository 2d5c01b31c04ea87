import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contsolve.core import (
    Hypergraph,
    ParameterError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    complete_graph,
)
from contsolve import extsum
from contsolve.extsum import (
    UNIVERSE_CEILING,
    ExtSumInstance,
    _marginalize,
    eval_disjoint,
    eval_k2,
    eval_k3,
    eval_naive,
    evaluate,
    hyperclique_count,
    hyperclique_to_extsum,
    reduce_refinement,
    refinement_from_witness,
    refinement_witness,
)
from oracles import count_hypercliques


def random_instance(rng, k, max_universe=18, max_subset=10):
    nx = rng.randint(1, max_universe)
    subsets, tables = [], []
    for _ in range(k):
        sz = rng.randint(0, min(nx, max_subset))
        xs = tuple(sorted(rng.sample(range(nx), sz)))
        subsets.append(xs)
        tables.append(tuple(rng.randint(-9, 9) for _ in range(1 << sz)))
    return ExtSumInstance(nx, tuple(subsets), tuple(tables))


def random_disjoint_instance(rng, k, max_universe=18):
    nx = rng.randint(k, max_universe)
    pool = list(range(nx))
    rng.shuffle(pool)
    subsets, tables = [], []
    for _ in range(k):
        take = rng.randint(0, max(0, len(pool) // (k + 1)))
        xs = tuple(sorted(pool[:take]))
        pool = pool[take:]
        subsets.append(xs)
        tables.append(tuple(rng.randint(-9, 9) for _ in range(1 << len(xs))))
    return ExtSumInstance(nx, tuple(subsets), tuple(tables))


class TestHandExamples:
    def test_naive_single_subset(self):
        inst = ExtSumInstance(1, ((0,),), ((2, 3),))
        assert eval_naive(inst) == 5

    def test_naive_all_ones(self):
        inst = ExtSumInstance(2, ((0,), (1,)), ((1, 1), (1, 1)))
        assert eval_naive(inst) == 4

    def test_universe_ceiling(self):
        # refused at construction, before any evaluator builds 2^universe
        with pytest.raises(SizeLimitError):
            ExtSumInstance(10**7, (), ())
        with pytest.raises(SizeLimitError):
            ExtSumInstance.from_json('{"universe": 10000000, "subsets": [], "tables": []}')
        assert evaluate(ExtSumInstance(UNIVERSE_CEILING, (), ())) == 1 << UNIVERSE_CEILING

    def test_naive_repeated_variable(self):
        inst = ExtSumInstance(1, ((0,), (0,)), ((1, 2), (3, 4)))
        assert eval_naive(inst) == 11
        assert eval_k2(inst) == 11

    def test_disjoint_free_variable(self):
        inst = ExtSumInstance(2, ((0,),), ((1, 1),))
        assert eval_disjoint(inst) == 4

    def test_disjoint_factorization(self):
        inst = ExtSumInstance(2, ((0,), (1,)), ((2, 5), (3, 4)))
        assert eval_disjoint(inst) == 7 * 7

    def test_disjoint_rejects_overlap(self):
        inst = ExtSumInstance(1, ((0,), (0,)), ((1, 2), (3, 4)))
        with pytest.raises(PreconditionError):
            eval_disjoint(inst)

    def test_k3_all_ones_pairwise_overlaps(self):
        inst = ExtSumInstance(
            3,
            ((0, 1), (1, 2), (0, 2)),
            ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
        )
        assert eval_k3(inst) == 8

    def test_arity_checks(self):
        inst = ExtSumInstance(1, ((0,),), ((1, 1),))
        with pytest.raises(ParameterError):
            eval_k2(inst)
        with pytest.raises(ParameterError):
            eval_k3(inst)

    def test_naive_limit(self):
        inst = ExtSumInstance(25, (), ())
        with pytest.raises(SizeLimitError):
            eval_naive(inst)


class TestOracleEquivalence:
    def test_disjoint_matches_naive(self):
        rng = random.Random(10)
        for _ in range(120):
            inst = random_disjoint_instance(rng, rng.randint(1, 4))
            assert eval_disjoint(inst) == eval_naive(inst)

    def test_k2_matches_naive_with_work_bound(self):
        rng = random.Random(11)
        for _ in range(150):
            inst = random_instance(rng, 2)
            stats = {}
            assert eval_k2(inst, stats) == eval_naive(inst)
            assert stats["inner_iterations"] <= (1 << len(inst.subsets[0])) + (
                1 << len(inst.subsets[1])
            )

    def test_k3_matches_naive(self):
        rng = random.Random(12)
        for _ in range(120):
            inst = random_instance(rng, 3, max_universe=14, max_subset=8)
            assert eval_k3(inst) == eval_naive(inst)

    def test_k2_disjoint_degenerates(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = random_disjoint_instance(rng, 2)
            assert eval_k2(inst) == eval_disjoint(inst)

    def test_marginal_matches_dict_sum(self):
        # onto in an unsorted order, as eval_k3's core + pair + pair
        rng = random.Random(15)
        for _ in range(150):
            variables = tuple(sorted(rng.sample(range(14), rng.randint(0, 8))))
            table = tuple(rng.randint(-9, 9) for _ in range(1 << len(variables)))
            onto = rng.sample(variables, rng.randint(0, len(variables)))
            want = {}
            for a in range(1 << len(variables)):
                key = sum(1 << onto.index(v) for j, v in enumerate(variables) if a >> j & 1 and v in onto)
                want[key] = want.get(key, 0) + table[a]
            got = _marginalize(variables, table, tuple(onto))
            assert got == [want.get(key, 0) for key in range(1 << len(onto))]

    def test_dispatcher(self):
        rng = random.Random(14)
        for k in (0, 1, 2, 3):
            for _ in range(20):
                inst = random_instance(rng, k, max_universe=12, max_subset=6)
                assert evaluate(inst) == eval_naive(inst)


class TestReduceRefinement:
    def test_identity_refinement(self):
        rng = random.Random(20)
        inst = random_instance(rng, 3, max_universe=10, max_subset=5)
        reduced = reduce_refinement(inst, [(0,), (1,), (2,)])
        assert reduced.subsets == inst.subsets
        assert eval_naive(reduced) == eval_naive(inst)

    def test_merge_preserves_value(self):
        rng = random.Random(21)
        for i in range(160):
            k = rng.randint(2, 4)
            inst = random_instance(rng, k, max_universe=12, max_subset=6)
            if i >= 80:
                # members that share a subset, so a part's union can be a
                # member's own subset and its table is reused as it is
                subsets = list(inst.subsets)
                subsets[rng.randrange(1, k)] = subsets[0]
                tables = [tuple(rng.randint(-9, 9) for _ in range(1 << len(xs))) for xs in subsets]
                inst = ExtSumInstance(inst.universe, tuple(subsets), tuple(tables))
            indices = list(range(k))
            rng.shuffle(indices)
            cut = rng.randint(1, k)
            parts = [tuple(sorted(indices[:cut]))]
            if cut < k:
                parts.append(tuple(sorted(indices[cut:])))
            reduced = reduce_refinement(inst, parts)
            assert eval_naive(reduced) == eval_naive(inst)

    def test_merge_all(self):
        rng = random.Random(22)
        inst = random_instance(rng, 3, max_universe=10, max_subset=5)
        reduced = reduce_refinement(inst, [(0, 1, 2)])
        assert reduced.k == 1
        assert eval_naive(reduced) == eval_naive(inst)

    def test_bad_partition_rejected(self):
        inst = ExtSumInstance(2, ((0,), (1,)), ((1, 1), (1, 1)))
        with pytest.raises(ParameterError):
            reduce_refinement(inst, [(0,)])
        with pytest.raises(ParameterError):
            reduce_refinement(inst, [(0, 1), (1,)])

    def test_json_roundtrip(self):
        rng = random.Random(23)
        inst = random_instance(rng, 2, max_universe=8, max_subset=4)
        assert ExtSumInstance.from_json(inst.to_json()) == inst


class TestHypercliqueReduction:
    def test_k4_triangles(self):
        h = Hypergraph(4, 2, complete_graph(4).edges)
        assert hyperclique_count(h, 3) == 4

    def test_no_edges(self):
        h = Hypergraph(5, 3, [])
        assert hyperclique_count(h, 4) == 0

    def test_single_edge_no_bigger_clique(self):
        h = Hypergraph(5, 3, [(0, 1, 2)])
        assert hyperclique_count(h, 4) == 0

    def test_table_over_ceiling_refused_before_building(self):
        # 2^(3 * 9) entries per table: refused at once, not after the build
        h = Hypergraph(512, 3, [(0, 1, 2)])
        with pytest.raises(SizeLimitError):
            hyperclique_to_extsum(h, 4)

    def test_universe_over_naive_ceiling_refused_before_encoding(self, monkeypatch):
        # 3 blocks of 9 bits: a 27-variable naive sum
        def encode(h, k):
            raise AssertionError("encoded an instance the naive sum refuses")

        monkeypatch.setattr(extsum, "hyperclique_to_extsum", encode)
        h = Hypergraph(512, 2, [(0, 1)])
        with pytest.raises(SizeLimitError):
            hyperclique_count(h, 3)

    def test_k_must_exceed_r(self):
        h = Hypergraph(4, 2, [(0, 1)])
        with pytest.raises(ParameterError):
            hyperclique_to_extsum(h, 2)

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(30)
        for _ in range(12):
            n = rng.randint(4, 8)
            pool = list(combinations(range(n), 2))
            edges = rng.sample(pool, rng.randint(0, len(pool)))
            h = Hypergraph(n, 2, edges)
            for k in (3, 4):
                assert hyperclique_count(h, k) == count_hypercliques(h, k)

    def test_random_hypergraphs_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(6):
            n = rng.randint(4, 7)
            pool = list(combinations(range(n), 3))
            edges = rng.sample(pool, rng.randint(0, len(pool)))
            h = Hypergraph(n, 3, edges)
            assert hyperclique_count(h, 4) == count_hypercliques(h, 4)


class TestRefinementWitness:
    def test_negative_fixture_k2(self):
        # all 2-subsets of a 4-element universe: every pair of universe
        # elements is inside some subset, so no 2-part refinement avoids X
        subsets = [frozenset(c) for c in combinations(range(4), 2)]
        assert refinement_witness(4, subsets, 2) is None

    def test_negative_fixture_k3(self):
        subsets = [frozenset(c) for c in combinations(range(6), 3)]
        assert refinement_witness(6, subsets, 3) is None

    def test_positive_direction_exhaustive_small(self):
        # every collection of K half-size subsets admits a refinement into
        # floor(log2 K) + 1 parts with all unions proper
        for n in (2, 3, 4):
            half = [frozenset(s) for sz in range(n // 2 + 1) for s in combinations(range(n), sz)]
            for big_k in (2, 3):
                k = big_k.bit_length()  # floor(log2 K) + 1
                for collection in combinations(half, big_k):
                    w = refinement_witness(n, list(collection), k)
                    assert w is not None
                    parts = refinement_from_witness(list(collection), w)
                    covered = [i for p in parts for i in p]
                    assert sorted(covered) == list(range(big_k))

    def test_positive_direction_sampled_large(self):
        rng = random.Random(40)
        for _ in range(300):
            n = rng.randint(4, 10)
            big_k = rng.randint(2, 7)
            k = big_k.bit_length()
            assert k <= 3
            collection = []
            for _ in range(big_k):
                sz = rng.randint(0, n // 2)
                collection.append(frozenset(rng.sample(range(n), sz)))
            w = refinement_witness(n, collection, k)
            assert w is not None


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
_id_lists = st.lists(st.integers(-1, 6) | st.floats(-1, 6) | st.booleans(), max_size=3)
_instance_like = st.fixed_dictionaries(
    {
        "universe": st.integers(-1, 8) | st.floats() | st.booleans() | st.text(max_size=2),
        "subsets": st.lists(_id_lists, max_size=3) | _json_values,
        "tables": st.lists(st.lists(st.integers(-2, 2) | st.text(max_size=1), max_size=8), max_size=3)
        | _json_values,
    }
)


@st.composite
def _valid_instance_dicts(draw):
    universe = draw(st.integers(0, 6))
    ids = st.sets(st.integers(0, universe - 1), max_size=3) if universe else st.just(set())
    subsets = [sorted(xs) for xs in draw(st.lists(ids, max_size=3))]
    entries = [st.lists(st.integers(-9, 9), min_size=1 << len(xs), max_size=1 << len(xs)) for xs in subsets]
    tables = [draw(e) for e in entries]
    return {"universe": universe, "subsets": subsets, "tables": tables}


class TestFromJson:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not json",
            "[]",
            '{"universe": 3}',
            "[" * 100000 + "]" * 100000,
            '{"universe": 2, "subsets": [[0]], "tables": [[1, "a"]]}',
            '{"universe": 2, "subsets": [[0.0]], "tables": [[1, 2]]}',
            '{"universe": 1e400, "subsets": [], "tables": []}',
            '{"universe": true, "subsets": [], "tables": []}',
            '{"universe": 2, "subsets": [[true]], "tables": [[1, 2]]}',
            '{"universe": 2, "subsets": [0], "tables": [[1, 2]]}',
            '{"universe": 2, "subsets": [[0]], "tables": {"0": [1, 2]}}',
        ],
    )
    def test_malformed_input_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            ExtSumInstance.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(max_size=60)
        | st.one_of(_json_values, _instance_like, _valid_instance_dicts()).map(json.dumps)
    )
    def test_any_text_yields_instance_or_typed_error(self, text):
        try:
            inst = ExtSumInstance.from_json(text)
        except (ParseError, ParameterError, SizeLimitError):
            return
        assert isinstance(inst.universe, int)
        assert ExtSumInstance.from_json(inst.to_json()) == inst
