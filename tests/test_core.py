
import importlib
import math
import pkgutil
import random
import time
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contsolve
from contsolve.core import (
    ITEM_BYTES,
    MEMORY_BUDGET_BYTES,
    CnfFormula,
    Graph,
    Hypergraph,
    ParameterError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    cycle_graph,
    formula_bytes,
    graph_bytes,
    max_codegree,
    parse_dimacs_cnf,
    parse_dimacs_graph,
    random_graph,
    random_ksat_formula,
    random_regular_graph,
)
from contsolve.extsum import ExtSumInstance
from oracles import brute_codegree, graph_fields, pairing_regular_graph


def test_every_error_the_library_defines_is_one_of_four():
    # every refusal is a ParseError, ParameterError, PreconditionError or
    # SizeLimitError: no module defines an exception class of its own
    defined = {
        obj
        for info in pkgutil.iter_modules(contsolve.__path__, "contsolve.")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__.startswith("contsolve")
    }
    assert defined == {ParseError, ParameterError, PreconditionError, SizeLimitError}


class TestVertexSet:
    def test_basic_ops(self):
        a = VertexSet.of([0, 2, 5])
        b = VertexSet.of([2, 3])
        assert len(a) == 3 and 2 in a and 1 not in a
        assert (a | b).to_list() == [0, 2, 3, 5]
        assert (a & b).to_list() == [2]
        assert (a - b).to_list() == [0, 5]
        assert list(a) == [0, 2, 5]
        assert b.issubset(a | b)

    @given(st.sets(st.integers(0, 80)))
    def test_cardinality_is_popcount(self, members):
        vs = VertexSet.of(members)
        assert len(vs) == vs.mask.bit_count() == len(members)

    def test_immutable(self):
        vs = VertexSet.of([1])
        with pytest.raises(AttributeError):
            vs.mask = 0

    def test_negative_mask_is_a_parameter_error(self):
        for mask in (-1, -(1 << 80)):
            with pytest.raises(ParameterError, match="non-negative"):
                VertexSet(mask)


class TestGraphConstructor:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fields_match_the_pair_set(self, data):
        # any order of the edges and either orientation of each gives the
        # fields read off the set of (low, high) pairs
        n = data.draw(st.integers(0, 40))
        pool = list(combinations(range(n), 2))
        pairs = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
        edges = data.draw(st.permutations(edges))
        g = Graph(n, edges)
        expected = graph_fields(n, set(pairs))
        assert {name: getattr(g, name) for name in expected} == expected

    def test_adjacency_lists_are_the_sorted_mask_neighbours(self):
        # the constructor, the parser and the regular generator each build
        # adj[v] from the sorted edges; it must list adj_mask[v]'s bits in
        # order, and a generated graph must equal the one its edges build
        def sorted_mask_neighbours(g):
            return tuple(tuple(w for w in range(g.n) if mask >> w & 1) for mask in g.adj_mask)

        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(0, 30)
            pool = list(combinations(range(n), 2))
            pairs = rng.sample(pool, rng.randint(0, len(pool)))
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            g = Graph(n, edges)
            assert g.adj == sorted_mask_neighbours(g)
            text = "".join([f"p edge {n} {len(edges)}\n", *(f"e {u + 1} {v + 1}\n" for u, v in edges)])
            parsed = parse_dimacs_graph(text)
            assert parsed.adj == sorted_mask_neighbours(parsed)
        fields = ("n", "m", "edges", "adj", "adj_mask")
        for n, d in ((10, 3), (16, 5), (24, 12), (40, 7)):
            for seed in range(4):
                g = random_regular_graph(n, d, seed)
                assert g.adj == sorted_mask_neighbours(g)
                rebuilt = Graph(n, g.edges)
                assert [getattr(g, f) for f in fields] == [getattr(rebuilt, f) for f in fields]

    def test_empty_graph(self):
        for n in (0, 1, 5):
            g = Graph(n, [])
            expected = graph_fields(n, set())
            assert {name: getattr(g, name) for name in expected} == expected

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 4)], "vertex id out of range in edge (0, 4)"),
            ([(1, 2), (-1, 2)], "vertex id out of range in edge (-1, 2)"),
            ([(3, -2)], "vertex id out of range in edge (3, -2)"),
            ([(0, 1), (2, 2)], "self-loop at vertex 2"),
            ([(1, 3), (0, 2), (3, 1)], "duplicate edge (1, 3)"),
            ([(2, 0), (0, 2)], "duplicate edge (0, 2)"),
        ],
    )
    def test_bad_edges_rejected(self, edges, message):
        with pytest.raises(ParameterError) as err:
            Graph(4, edges)
        assert str(err.value) == message


class TestGraphParsing:
    def test_path_graph(self):
        g = parse_dimacs_graph("p edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3 and g.m == 2
        assert g.adj[1] == (0, 2)

    def test_empty_edge_list(self):
        g = parse_dimacs_graph("p edge 4 0\n")
        assert g.n == 4 and g.m == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs_graph("p edge 2 2\ne 1 2\ne 1 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs_graph("p edge 2 1\ne 1 1\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_dimacs_graph("p edge 2 1\ne 1 3\n")

    def test_roundtrip(self):
        g = cycle_graph(7)
        assert parse_dimacs_graph(g.to_dimacs()) == g

    def test_large_graph_parses_in_linear_time(self):
        g = complete_graph(290)  # 41,905 edges; quadratic dedup took about a minute
        text = g.to_dimacs()
        assert parse_dimacs_graph(text) == g
        body = text.split("\n", 1)[1]
        with pytest.raises(ParseError) as err:
            parse_dimacs_graph(f"p edge {g.n} {g.m + 1}\n{body}e 2 1\n")
        assert err.value.line == g.m + 2

    def test_non_utf8_bytes_rejected_by_both_parsers(self):
        for parse in (parse_dimacs_graph, parse_dimacs_cnf):
            with pytest.raises(ParseError):
                parse(b"\xff\xfe")
            # a leading byte-order mark does not shift the line count
            for data in (b"c ok\nc \xff\n", b"\xef\xbb\xbfc ok\nc \xff\n"):
                with pytest.raises(ParseError) as err:
                    parse(data)
                assert err.value.line == 2

    def test_a_leading_byte_order_mark_is_decoded_away(self):
        # one leading UTF-8 BOM parses as its absence, as `json.loads` reads
        # it in an extsum instance
        bom = b"\xef\xbb\xbf"
        assert parse_dimacs_graph(bom + b"p edge 2 1\ne 1 2\n") == Graph(2, [(0, 1)])
        assert parse_dimacs_cnf(bom + b"p cnf 2 1\n1 -2 0\n").clauses == ((1, -2),)
        assert ExtSumInstance.from_json(bom + b'{"universe": 1, "subsets": [], "tables": []}').universe == 1
        # a second mark is not decoded away
        for parse, header in ((parse_dimacs_graph, b"p edge 2 1\n"), (parse_dimacs_cnf, b"p cnf 2 1\n")):
            with pytest.raises(ParseError) as err:
                parse(bom + bom + header)
            assert err.value.line == 1

    def test_vertex_count_ceiling_checked_at_header(self):
        # the largest vertex count the byte budget admits parses; one more,
        # or an edge count over the budget, is refused at the header at once
        n = _GRAPH_MAX_VERTICES
        assert parse_dimacs_graph(f"p edge {n} 0\n").n == n
        m = (MEMORY_BUDGET_BYTES - graph_bytes(100, 0)) // ITEM_BYTES + 1
        started = time.monotonic()
        for header in (
            "p edge 10000000000 0", f"p edge {n + 1} 0", "p edge 80000 40000", f"p edge 100 {m}"
        ):
            with pytest.raises(ParseError) as err:
                parse_dimacs_graph(header + "\n")
            assert err.value.line == 1
        assert time.monotonic() - started < 1

    def test_cnf_header_counts_checked(self):
        n = _FORMULA_MAX_VARIABLES
        assert parse_dimacs_cnf(f"p cnf {n} 0\n").num_vars == n
        m = (MEMORY_BUDGET_BYTES - formula_bytes(10_000, 0)) // (10_000 // 4 + ITEM_BYTES) + 1
        started = time.monotonic()
        for header in (
            "p cnf -1 0", "p cnf 2 -1", f"p cnf {n + 1} 0", "p cnf 1000000 4000", f"p cnf 10000 {m}"
        ):
            with pytest.raises(ParseError) as err:
                parse_dimacs_cnf(header + "\n")
            assert err.value.line == 1
        assert time.monotonic() - started < 1

    def test_counts_past_the_header_refused_at_their_line(self):
        # the header's counts bound what the parser holds
        with pytest.raises(ParseError) as err:
            parse_dimacs_graph("p edge 3 1\ne 1 2\ne 2 3\n")
        assert err.value.line == 3
        with pytest.raises(ParseError) as err:
            parse_dimacs_cnf("p cnf 2 1\n1 0\n2 -1\n0\n")
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["p edge 4 3", "e 1 2", "c x", "  e 1 5"], "vertex id out of range in edge (1, 5)"),
            (["p edge 4 3", "", "e 0 2"], "vertex id out of range in edge (0, 2)"),
            (["p edge 4 3", "e 2 3", "\te -1 2"], "vertex id out of range in edge (-1, 2)"),
            (["p edge 4 3", "c", "\te 3 3"], "self-loop at vertex 3"),
            (["p edge 4 3", "e 1 2", "", "  e 2 1"], "duplicate edge (2, 1)"),
            (["p edge 4 2", "e 1 2", "c", "e 2 3", "e 3 4"], "more edges than the 2 the header declares"),
            (["p edge 4 3", "  e 1"], "malformed edge line 'e 1'"),
            (["p edge 4 3", "c e 1 2 3", "e 1 2 3 "], "malformed edge line 'e 1 2 3'"),
            (["p edge 4 3", "e 1 x"], "malformed edge line 'e 1 x'"),
            (["p edge 4 3", "", "e 1.0 2"], "malformed edge line 'e 1.0 2'"),
            (["c", "", " e 1 2"], "edge line before header"),
            (["p edge 4 3", "e 1 2", "  x 1 2"], "unrecognized line 'x 1 2'"),
        ],
        ids=[
            "out-of-range", "zero", "negative", "self-loop", "reversed-duplicate",
            "over-the-header", "two-tokens", "four-tokens", "non-integer", "non-integer-float",
            "before-header", "unrecognized",
        ],
    )
    def test_edge_line_faults_name_their_line(self, lines, message):
        # the faulty line is the last one; comments, blank lines and
        # leading whitespace before it count toward its number
        with pytest.raises(ParseError) as err:
            parse_dimacs_graph("c graph\n\n" + "\n".join(lines) + "\ne 1 3\n")
        line = len(lines) + 2
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


# the largest counts the byte budget admits on their own: the masks of
# isqrt(8 * budget) vertices alone fill it
_GRAPH_MAX_VERTICES = next(
    n for n in count(math.isqrt(8 * MEMORY_BUDGET_BYTES), -1)
    if graph_bytes(n, 0) <= MEMORY_BUDGET_BYTES
)
_FORMULA_MAX_VARIABLES = MEMORY_BUDGET_BYTES // (2 * ITEM_BYTES)


# DIMACS-shaped documents: a header with small, negative, huge or over-long
# counts, then edge or clause lines, with at times one junk line
_counts = st.integers(-3, 12) | st.sampled_from(
    [-(10**10), 10**10, _GRAPH_MAX_VERTICES + 1, _FORMULA_MAX_VARIABLES + 1, "9" * 5000, "x", ""]
)
_edge_lines = st.builds("e {} {}".format, st.integers(0, 7), st.integers(1, 6))
_clause_lines = (
    st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True)
    .flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    .map(lambda lits: " ".join(map(str, lits)) + " 0")
)
_junk_lines = st.one_of(
    st.builds("p {} {} {}".format, st.sampled_from(["edge", "cnf", "col"]), _counts, _counts),
    st.builds("e {} {}".format, st.text(max_size=3), st.integers(-1, 3)),
    st.sampled_from(["c comment", "", "%", "0", "p", "e 1", "1 -1 0", "1 1 0", "1 2"]),
    st.text(max_size=12),
)


@st.composite
def _dimacs_texts(draw):
    kind = draw(st.sampled_from(["edge", "cnf"]))
    lines = draw(st.lists(_edge_lines if kind == "edge" else _clause_lines, max_size=6))
    n, m = (draw(_counts), draw(_counts)) if draw(st.booleans()) else (7, len(lines))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_junk_lines))
    if draw(st.integers(0, 3)):
        lines.insert(0, f"p {kind} {n} {m}")
    return "\n".join(lines)


_dimacs_inputs = st.one_of(
    _dimacs_texts(), _dimacs_texts().map(str.encode), st.text(max_size=40), st.binary(max_size=40)
)


class TestDimacsFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_dimacs_inputs)
    def test_graph_parser_yields_graph_or_parse_error(self, text):
        try:
            g = parse_dimacs_graph(text)
        except ParseError:
            return
        assert isinstance(g, Graph) and graph_bytes(g.n, g.m) <= MEMORY_BUDGET_BYTES

    @settings(max_examples=400, deadline=None)
    @given(_dimacs_inputs)
    def test_cnf_parser_yields_formula_or_parse_error(self, text):
        try:
            phi = parse_dimacs_cnf(text)
        except ParseError:
            return
        assert isinstance(phi, CnfFormula)
        assert formula_bytes(phi.num_vars, len(phi.clauses)) <= MEMORY_BUDGET_BYTES


_PARSERS = {"edge": parse_dimacs_graph, "cnf": parse_dimacs_cnf}


class TestDimacsHeader:
    # both parsers read their header through one reader; each fault is
    # refused at the faulty header's line with the same message
    @pytest.mark.parametrize("fmt", ["edge", "cnf"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("p {fmt} 3", "malformed header 'p {fmt} 3'"),
            ("  p {fmt} 3 0 0 ", "malformed header 'p {fmt} 3 0 0'"),
            ("p col 3 0", "malformed header 'p col 3 0'"),
            ("p {fmt} 3 x", "malformed header 'p {fmt} 3 x'"),
            ("p {fmt} 2.0 0", "malformed header 'p {fmt} 2.0 0'"),
            ("p {fmt} -1 0", "negative count in header"),
            ("p {fmt} 3 -2", "negative count in header"),
            ("p {fmt} 3 0\np {fmt} 3 0", "duplicate header"),
        ],
        ids=[
            "three-tokens", "five-tokens", "other-format", "non-integer", "float",
            "negative-n", "negative-m", "duplicate",
        ],
    )
    def test_fault_names_its_line(self, fmt, header, message):
        text = "c header\n" + header.format(fmt=fmt) + "\n"
        line = text.count("\n")
        with pytest.raises(ParseError) as err:
            _PARSERS[fmt](text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: " + message.format(fmt=fmt)

    @pytest.mark.parametrize(
        "header, message",
        [
            (
                "p edge 300000 1",
                "300000 vertices and 1 edges may need 11,403,600,512 bytes, "
                "over the budget of 268,435,456",
            ),
            (
                "p cnf 300000 1",
                "300000 variables and 1 clauses may need 307,275,512 bytes, "
                "over the budget of 268,435,456",
            ),
        ],
        ids=["edge", "cnf"],
    )
    def test_past_the_byte_budget_names_the_format_nouns(self, header, message):
        with pytest.raises(ParseError) as err:
            _PARSERS[header.split()[1]]("c header\n" + header + "\n")
        assert err.value.line == 2
        assert str(err.value) == "line 2: " + message


class TestCnfParsing:
    def test_basic(self):
        phi = parse_dimacs_cnf("p cnf 2 1\n1 -2 0\n")
        assert phi.num_vars == 2 and phi.clauses == ((1, -2),)

    def test_tautology_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs_cnf("p cnf 1 1\n1 -1 0\n")

    @pytest.mark.parametrize(
        "clause, message",
        [
            ("1 2 -1 0", "tautological clause on variable 1"),
            # the tautology is named before a repeated literal
            ("2 1 2 -1 0", "tautological clause on variable 1"),
            # on the variable of the first literal whose negation is in the
            # clause, not the lowest such variable
            ("-3 2 1 3 -2 0", "tautological clause on variable 3"),
            ("2 -3 1 -2 3 0", "tautological clause on variable 2"),
            ("1 2 1 0", "repeated literal in clause"),
            ("-2 -2 0", "repeated literal in clause"),
            # a clause that spans lines is refused at the line of its 0
            ("1 2\n-1 0", "tautological clause on variable 1"),
        ],
        ids=[
            "tautology", "tautology-before-repeat", "first-literal", "first-literal-2",
            "repeat", "repeat-negative", "spanning-lines",
        ],
    )
    def test_clause_faults_name_their_line(self, clause, message):
        text = "p cnf 3 1\n" + clause + "\n"
        line = text.count("\n")
        with pytest.raises(ParseError) as err:
            parse_dimacs_cnf(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_no_clauses(self):
        phi = parse_dimacs_cnf("p cnf 3 0\n")
        assert phi.num_vars == 3 and phi.clauses == ()

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ParameterError, match="variable count"):
            CnfFormula(-1, [])

    def test_roundtrip(self):
        phi = random_ksat_formula(6, 10, 3, seed=1)
        assert parse_dimacs_cnf(phi.to_dimacs()) == phi

    def test_percent_line_ends_the_input(self):
        # SATLIB files close with a `%` line and then `0`; nothing after the
        # `%` line is read, and the clause checks still apply before it
        body = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"
        assert parse_dimacs_cnf(body + "%\n0\n").clauses == ((1, -2, 3), (-1, 2))
        assert parse_dimacs_cnf(body + " %\nnot dimacs\n").clauses == ((1, -2, 3), (-1, 2))
        with pytest.raises(ParseError, match="unterminated clause"):
            parse_dimacs_cnf("p cnf 3 2\n1 -2 3 0\n-1 2\n%\n0\n")
        with pytest.raises(ParseError, match="header declares 3 clauses, found 2"):
            parse_dimacs_cnf("p cnf 3 3\n1 -2 3 0\n-1 2 0\n%\n0\n")
        with pytest.raises(ParseError, match="missing header"):
            parse_dimacs_cnf("%\np cnf 3 0\n")


class TestGenerators:
    def test_k4_unique_cubic(self):
        for seed in (0, 1, 2):
            g = random_regular_graph(4, 3, seed)
            assert g == complete_graph(4)

    def test_degree_sequence(self):
        g = random_regular_graph(6, 2, 7)
        assert all(g.degree(v) == 2 for v in range(6))

    def test_odd_product_rejected(self):
        with pytest.raises(ParameterError):
            random_regular_graph(5, 3, 1)

    def test_clause_width_outside_one_to_n_rejected(self):
        for k in (-1, 0, 5):
            with pytest.raises(ParameterError):
                random_ksat_formula(4, 10**6, k, 1)

    def test_negative_clause_count_rejected(self):
        for m in (-1, -5, -(10**9)):
            with pytest.raises(ParameterError):
                random_ksat_formula(10, m, 3, 1)

    def test_edge_probability_outside_unit_interval_rejected(self):
        for p in (1.5, -0.5, 1 + 1e-12, float("nan")):
            with pytest.raises(ParameterError, match="probability"):
                random_graph(6, p, 1)
        assert random_graph(6, 1.0, 1) == complete_graph(6)
        assert random_graph(6, 0.0, 1).m == 0

    def test_sizes_over_the_byte_budget_refused_at_once(self):
        started = time.monotonic()
        for generate in (
            lambda: random_graph(_GRAPH_MAX_VERTICES + 2, 0.0, 1),
            # 1,000,405 pairs at p = 0.6 expect 600,243 edges, past the
            # budget's 524,288
            lambda: random_graph(1415, 0.6, 1),
            lambda: random_regular_graph(160_000, 4, 1),
            lambda: random_regular_graph(_GRAPH_MAX_VERTICES + 2, 0, 1),
            lambda: random_ksat_formula(1_000_000, 4000, 3, 1),
            lambda: random_ksat_formula(1000, 10**9, 3, 1),
        ):
            with pytest.raises(SizeLimitError) as err:
                generate()
            assert err.value.stage == "memory"
        assert time.monotonic() - started < 1

    def test_regular_graphs_are_the_shuffle_and_randrange_graphs(self):
        # every n <= 40 and every d with n*d even outside the dense band
        # d > 2n/3, where the pairing model restarts hundreds of times and
        # the reference takes up to seconds a graph
        for n in range(1, 41):
            for d in range(0, 2 * n // 3 + 1):
                if n * d % 2:
                    continue
                for seed in (0, 1, 2):
                    got = random_regular_graph(n, d, seed)
                    want = pairing_regular_graph(n, d, seed)
                    assert (got.edges, got.adj, got.adj_mask) == (
                        want.edges,
                        want.adj,
                        want.adj_mask,
                    ), (n, d, seed)

    @pytest.mark.parametrize("n, d", [(50, 48), (60, 58)])
    def test_near_complete_degrees_refused_past_the_draw_budget(self, n, d):
        started = time.monotonic()
        with pytest.raises(SizeLimitError, match="draws") as err:
            random_regular_graph(n, d, 1)
        assert err.value.stage == "random-regular-graph"
        assert time.monotonic() - started < 2

    def test_deterministic(self):
        assert random_regular_graph(12, 4, 3) == random_regular_graph(12, 4, 3)
        assert random_ksat_formula(8, 20, 3, 5) == random_ksat_formula(8, 20, 3, 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(6, 14), st.sampled_from([2, 3, 4]), st.integers(0, 10**6))
    def test_regular_degrees_property(self, n, d, seed):
        if n * d % 2:
            n += 1
        g = random_regular_graph(n, d, seed)
        assert all(g.degree(v) == d for v in range(g.n))


class TestHypergraphConstructor:
    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ParameterError, match="vertex count"):
            Hypergraph(-1, 3, [])


class TestCodegree:
    def test_single_edge(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        assert max_codegree(h, 1) == 1

    def test_shared_pair(self):
        h = Hypergraph(5, 3, [(1, 2, 3), (1, 2, 4)])
        assert max_codegree(h, 2) == 2

    def test_full_edge(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 4, 5)])
        assert max_codegree(h, 3) == 1

    def test_out_of_range(self):
        h = Hypergraph(4, 2, [(0, 1)])
        with pytest.raises(ParameterError):
            max_codegree(h, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(3, 12))
        r = data.draw(st.integers(2, min(4, n)))
        pool = list(combinations(range(n), r))
        edges = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=12, unique=True))
        h = Hypergraph(n, r, edges)
        for i in range(1, r + 1):
            assert max_codegree(h, i) == brute_codegree(h, i)

    def test_repeated_edges_count_with_multiplicity(self):
        # random k-CNF repeats clauses, so its literal hypergraph repeats edges
        assert [max_codegree(Hypergraph(5, 3, [(0, 1, 2)] * 3), i) for i in (1, 2, 3)] == [3, 3, 3]
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(3, 9)
            r = rng.randint(2, min(4, n))
            pool = list(combinations(range(n), r))
            edges = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            edges += rng.choices(edges, k=rng.randint(1, 6))
            h = Hypergraph(n, r, edges)
            for i in range(1, r + 1):
                assert max_codegree(h, i) == brute_codegree(h, i)
