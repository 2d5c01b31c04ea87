import random
from itertools import combinations

import pytest

from contsolve.core import (
    CnfFormula,
    Hypergraph,
    ParameterError,
    PreconditionError,
    VertexSet,
    random_ksat_formula,
)
from contsolve import sat
from contsolve.sat import (
    LiteralHypergraph,
    SatConfig,
    StructureParams,
    assignment_literal_set,
    build_literal_hypergraph,
    dpll,
    extract_structure,
    restrict_formula,
    solve_ksat_dense,
)
from oracles import hypergraph_independent_sets, truth_table_sat


class TestLiteralHypergraph:
    def test_vertex_numbering(self):
        assert LiteralHypergraph.literal_vertex(1) == 0
        assert LiteralHypergraph.literal_vertex(-1) == 1
        assert LiteralHypergraph.literal_vertex(3) == 4
        assert LiteralHypergraph.negation_vertex(2) == 3

    def test_clause_edge(self):
        # (x1 or x2) falsified exactly when both negations are picked
        phi = CnfFormula(2, [(1, 2)])
        lh = build_literal_hypergraph(phi)
        assert lh.hypergraph.n == 4
        assert lh.hypergraph.edges == ((1, 3),)

    def test_mixed_widths_rejected(self):
        phi = CnfFormula(3, [(1, 2), (1, 2, 3)])
        with pytest.raises(ParameterError):
            build_literal_hypergraph(phi)

    def test_empty_formula_rejected(self):
        with pytest.raises(ParameterError):
            build_literal_hypergraph(CnfFormula(2, []))

    def test_satisfying_assignments_are_independent_sets(self):
        # an assignment satisfies the formula iff its true-literal set spans
        # no edge of the literal hypergraph
        rng = random.Random(60)
        for _ in range(25):
            n = rng.randint(2, 7)
            phi = random_ksat_formula(n, rng.randint(1, 10), min(3, n), rng.randrange(10**6))
            lh = build_literal_hypergraph(phi)
            independent = set(hypergraph_independent_sets(lh.hypergraph))
            for bits in range(1 << n):
                assignment = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
                lits = assignment_literal_set(phi, assignment)
                assert phi.is_satisfied_by(assignment) == (lits.mask in independent)


class TestRestriction:
    def test_keep_everything_is_identity(self):
        phi = CnfFormula(2, [(1, -2)])
        r = restrict_formula(phi, VertexSet((1 << 4) - 1))
        assert not r.contradiction and r.forced == {}
        assert r.formula.clauses == phi.clauses

    def test_single_literal_forced(self):
        phi = CnfFormula(2, [(1, 2)])
        kept = VertexSet.of([0, 2, 3])  # x1 kept positively only
        r = restrict_formula(phi, kept)
        assert not r.contradiction
        assert r.forced[1] is True
        assert r.formula.clauses == ()  # clause satisfied by x1

    def test_variable_missing_both_literals(self):
        phi = CnfFormula(2, [(1, 2)])
        r = restrict_formula(phi, VertexSet.of([0, 1]))
        assert r.contradiction

    def test_forced_falsification(self):
        phi = CnfFormula(2, [(1, 2)])
        kept = VertexSet.of([1, 3])  # both variables forced false
        assert restrict_formula(phi, kept).contradiction


class TestDpll:
    def test_trivial_sat(self):
        sat, model = dpll(CnfFormula(1, [(1,)]))
        assert sat and model == {1: True}

    def test_contradiction(self):
        sat, model = dpll(CnfFormula(1, [(1,), (-1,)]))
        assert not sat and model is None

    def test_assumptions(self):
        phi = CnfFormula(2, [(1, 2)])
        sat, model = dpll(phi, assumptions={1: False})
        assert sat and model[2] is True

    def test_matches_truth_table(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 8)
            phi = random_ksat_formula(
                n, rng.randint(1, 4 * n), min(3, n), rng.randrange(10**6)
            )
            sat, model = dpll(phi)
            assert sat == truth_table_sat(phi)
            if sat:
                assert phi.is_satisfied_by(model)


class TestExtractStructure:
    def test_absent_on_sparse(self):
        h = Hypergraph(6, 3, [(0, 1, 2)])
        result = extract_structure(h, StructureParams(D=2, C=4.0, epsilon=0.5))
        assert result.status == "absent"

    def test_found_on_dense_block(self):
        edges = list(combinations(range(8), 3))
        h = Hypergraph(8, 3, edges)
        result = extract_structure(h, StructureParams(D=3, C=10.0, epsilon=0.1))
        assert result.status in ("found", "found-codegree-fail")
        assert len(result.edges) >= h.n
        # every vertex of the extracted structure keeps degree <= (r+1) D
        sub = Hypergraph(h.n, 3, list(result.edges))
        assert max(len(sub.incidence[v]) for v in range(h.n)) <= 4 * 3

    def test_codegree_gate(self):
        # a tight cluster of triples through one fixed pair has huge pair
        # co-degree, which a small C must reject
        edges = [(0, 1, v) for v in range(2, 14)]
        edges += list(combinations(range(14), 3))[:40]
        h = Hypergraph(14, 3, edges)
        result = extract_structure(h, StructureParams(D=2, C=0.1, epsilon=0.9))
        if result.status != "absent":
            assert result.status == "found-codegree-fail"

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            StructureParams(D=0, C=1.0, epsilon=0.5)
        with pytest.raises(ParameterError):
            StructureParams(D=1, C=1.0, epsilon=1.0)


class TestSolveKsatDense:
    PARAMS = StructureParams(D=4, C=40.0, epsilon=0.3)

    def test_dpll_mode(self):
        phi = random_ksat_formula(8, 20, 3, 1)
        r = solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="dpll"))
        assert r.stats["path"] == "dpll"
        assert r.satisfiable == truth_table_sat(phi)

    def test_containers_mode_requires_structure(self):
        phi = random_ksat_formula(12, 4, 3, 2)
        with pytest.raises(PreconditionError):
            solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="containers"))

    def test_auto_falls_back_without_structure(self):
        phi = random_ksat_formula(12, 4, 3, 3)
        r = solve_ksat_dense(phi, self.PARAMS)
        assert r.stats["path"] == "dpll (no structure)"
        assert r.satisfiable == truth_table_sat(phi)

    def test_dense_agrees_with_dpll(self):
        rng = random.Random(62)
        used_containers = 0
        for _ in range(20):
            n = rng.randint(6, 12)
            m = rng.randint(6 * n, 10 * n)
            phi = random_ksat_formula(n, m, 3, rng.randrange(10**6))
            r = solve_ksat_dense(phi, self.PARAMS)
            if r.stats["path"] == "containers":
                used_containers += 1
            want, _ = dpll(phi)
            assert r.satisfiable == want
            if r.satisfiable:
                assert phi.is_satisfied_by(r.model)
        assert used_containers > 0

    def test_various_densities_truth_table(self):
        rng = random.Random(63)
        for _ in range(30):
            n = rng.randint(3, 9)
            m = rng.randint(1, 8 * n)
            phi = random_ksat_formula(n, m, 3, rng.randrange(10**6))
            r = solve_ksat_dense(phi, self.PARAMS)
            assert r.satisfiable == truth_table_sat(phi)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            solve_ksat_dense(random_ksat_formula(4, 4, 3, 4), self.PARAMS, SatConfig(mode="zchaff"))

    def test_collection_containing_all_literals_costs_one_restriction(self, monkeypatch):
        # at r=3 no literal joins the empty fingerprint, so the engine's only
        # container is every literal
        phi = random_ksat_formula(10, 80, 3, 424242)
        calls = []

        def counted(phi, kept):
            calls.append(kept)
            return restrict_formula(phi, kept)

        monkeypatch.setattr(sat, "restrict_formula", counted)
        r = solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="containers"))
        assert calls == [VertexSet((1 << (2 * phi.num_vars)) - 1)]
        assert r.stats["largest_restriction"] == phi.num_vars
        assert r.stats["vacuous"] is True
        assert r.satisfiable == dpll(phi)[0]
