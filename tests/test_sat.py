import math
import random
from collections import Counter
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
from contsolve.containers import build_hypergraph_collection
from contsolve.sat import (
    SatConfig,
    StructureParams,
    build_literal_hypergraph,
    dpll,
    extract_structure,
    literal_vertex,
    restrict_formula,
    solve_ksat_dense,
)
from oracles import (
    assignment_literal_set,
    greedy_structure_rescan,
    hypergraph_independent_sets,
    propagate_one_unit_per_pass,
    truth_table_sat,
)


class TestLiteralHypergraph:
    def test_vertex_numbering(self):
        assert literal_vertex(1) == 0
        assert literal_vertex(-1) == 1
        assert literal_vertex(3) == 4
        assert literal_vertex(-2) == 3

    def test_clause_edge(self):
        # (x1 or x2) falsified exactly when both negations are picked
        phi = CnfFormula(2, [(1, 2)])
        h = build_literal_hypergraph(phi)
        assert isinstance(h, Hypergraph)
        assert h.n == 4 and h.r == 2
        assert h.edges == ((1, 3),)

    def test_mixed_widths_rejected(self):
        phi = CnfFormula(3, [(1, 2), (1, 2, 3)])
        with pytest.raises(ParameterError):
            build_literal_hypergraph(phi)

    def test_edges_are_the_sorted_negations_of_each_clause(self):
        rng = random.Random(66)
        for _ in range(40):
            k = rng.randint(2, 5)
            n = rng.randint(k, 9)
            phi = random_ksat_formula(n, rng.randint(1, 12), k, rng.randrange(10**6))
            edges = build_literal_hypergraph(phi).edges
            assert edges == tuple(
                tuple(sorted(literal_vertex(-lit) for lit in c)) for c in phi.clauses
            )

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
            h = build_literal_hypergraph(phi)
            independent = set(hypergraph_independent_sets(h))
            for bits in range(1 << n):
                assignment = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
                lits = assignment_literal_set(n, assignment)
                assert phi.is_satisfied_by(assignment) == (lits in independent)


class TestRestriction:
    def test_keep_everything_is_identity(self):
        # keeping every literal forces nothing: DPLL runs on phi as it is
        phi = CnfFormula(2, [(1, -2)])
        r = restrict_formula(phi, VertexSet((1 << 4) - 1))
        assert not r.contradiction and r.forced == {}
        assert r.unassigned_before_propagation == 2

    def test_single_literal_forced(self):
        phi = CnfFormula(2, [(1, 2)])
        kept = VertexSet.of([0, 2, 3])  # x1 kept positively only
        r = restrict_formula(phi, kept)
        assert not r.contradiction
        assert r.forced == {1: True} and r.unassigned_before_propagation == 1

    def test_variable_missing_both_literals(self):
        phi = CnfFormula(2, [(1, 2)])
        r = restrict_formula(phi, VertexSet.of([0, 1]))
        assert r.contradiction and r.forced == {}

    def test_forced_falsification(self):
        # forcing both variables false falsifies the clause; the restriction
        # does not propagate, so DPLL's first propagation refutes it
        phi = CnfFormula(2, [(1, 2)])
        kept = VertexSet.of([1, 3])
        r = restrict_formula(phi, kept)
        assert not r.contradiction and r.forced == {1: False, 2: False}
        assert dpll(phi, assumptions=r.forced) == (False, None)

    def test_mask_outside_the_literals_rejected(self):
        with pytest.raises(ParameterError, match="literal vertices"):
            restrict_formula(CnfFormula(2, [(1, -2)]), VertexSet(0b11111))

    def test_assumptions_match_brute_force(self):
        # a variable keeping one literal is forced to it, one keeping neither
        # is a contradiction; DPLL under the forced values agrees with a
        # brute force over the assignments that honour them
        rng = random.Random(68)
        outcomes = {"contradiction": 0, True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 7)
            clauses = []
            for _ in range(rng.randint(1, 4 * n)):
                width = rng.choice([1, 2, 3, 3]) if rng.random() < 0.5 else 3
                trip = rng.sample(range(1, n + 1), min(width, n))
                clauses.append([v if rng.random() < 0.5 else -v for v in trip])
            phi = CnfFormula(n, clauses)
            keeps = rng.choices(["both", "pos", "neg", "none"], [6, 2, 2, 1], k=n)
            kept = VertexSet.of(
                literal_vertex(lit)
                for var, keep in enumerate(keeps, 1)
                for lit, wanted in ((var, "pos"), (-var, "neg"))
                if keep in ("both", wanted)
            )
            r = restrict_formula(phi, kept)
            if "none" in keeps:
                assert r.contradiction and r.forced == {}
                outcomes["contradiction"] += 1
                continue
            forced = {var: keep == "pos" for var, keep in enumerate(keeps, 1) if keep != "both"}
            assert not r.contradiction and r.forced == forced
            assert r.unassigned_before_propagation == keeps.count("both")
            free = [var for var in range(1, n + 1) if var not in forced]
            want = any(
                phi.is_satisfied_by({**forced, **{v: bool(bits >> i & 1) for i, v in enumerate(free)}})
                for bits in range(1 << len(free))
            )
            got, model = dpll(phi, assumptions=r.forced)
            assert got == want
            if got:
                assert set(model) == set(range(1, n + 1)) and phi.is_satisfied_by(model)
                assert all(model[var] == value for var, value in forced.items())
            outcomes[got] += 1
        assert min(outcomes.values()) > 20, outcomes


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

    def test_a_search_deeper_than_the_recursion_limit_answers(self):
        # x1 != x2, x3 != x4, ...: no literal is pure, so each pair is one
        # branch, 1,000 deep, past the interpreter's default recursion limit;
        # the search runs on an explicit stack and tries True first
        phi = CnfFormula(2000, [c for v in range(1, 2000, 2) for c in ((v, v + 1), (-v, -v - 1))])
        sat, model = dpll(phi)
        assert sat and model == {v: v % 2 == 1 for v in range(1, 2001)}

    @staticmethod
    def _counted(monkeypatch, propagate, phi, assumptions=None):
        """dpll's answer and model, and how often it propagated, with
        `propagate` in place of `sat._propagate`."""
        calls = []
        monkeypatch.setattr(sat, "_propagate", lambda c, f: calls.append(None) or propagate(c, f))
        return dpll(phi, assumptions), len(calls)

    def test_propagation_matches_one_unit_per_pass(self, monkeypatch):
        # applying every unit a pass meets reaches the fixpoint that one unit
        # per pass reaches, so the search takes the same branches: the same
        # answers, models and propagation calls, with and without assumptions
        live = sat._propagate  # _counted patches the module's name
        rng = random.Random(67)
        outcomes = Counter()
        for i in range(200):
            # mixed widths 1-4, so units arise at every depth and in any
            # clause order
            n = rng.randint(1, 9)
            phi = CnfFormula(n, [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), min(n, rng.choice((1, 2, 2, 3, 3, 4))))]
                for _ in range(rng.randint(1, 4 * n))
            ])
            assumptions = None
            if i % 2:
                assumptions = {v: rng.random() < 0.5 for v in rng.sample(range(1, n + 1), rng.randint(1, n))}
            # one propagation: the same clauses left and the same fixpoint
            forced, want_forced = dict(assumptions or {}), dict(assumptions or {})
            left = live(phi.clauses, forced)
            want_left = propagate_one_unit_per_pass(phi.clauses, want_forced)
            if want_left is None:
                assert left is None
            else:
                assert list(map(list, left)) == want_left and forced == want_forced
            got = self._counted(monkeypatch, live, phi, assumptions)
            want = self._counted(monkeypatch, propagate_one_unit_per_pass, phi, assumptions)
            assert got == want
            outcomes[got[0][0], assumptions is None] += 1
        assert len(outcomes) == 4 and min(outcomes.values()) > 20, outcomes

    def test_units_that_disagree_in_one_pass_are_a_contradiction(self):
        assert sat._propagate([(1,), (-1,), (2, 3)], {}) is None
        assert dpll(CnfFormula(3, [(1,), (-1,), (2, 3)])) == (False, None)

    def test_one_pass_applies_a_chain_of_units(self):
        # each unit is applied as the pass meets it, so x1 -> x2 -> x3 is
        # one pass, and one more finds no unit; the clauses left keep their
        # order, lose their false literals, and pass on as they are when
        # they have none
        forced = {}
        left = sat._propagate([(1,), (-1, 2), (4, 5), (-3, 4, 6), (-2, 3), (-3, 5, -6)], forced)
        assert forced == {1: True, 2: True, 3: True}
        assert left == [(4, 5), [4, 6], [5, -6]]

    def test_xor_pairs_answer_and_propagation_count_are_pinned(self, monkeypatch):
        # x1 != x2, x3 != x4, ... on 400 variables: no literal is pure, so
        # each pair is one branch on its lower variable, True first, and one
        # propagation; the root takes one more. The work is counted, not timed
        phi = CnfFormula(400, [c for v in range(1, 400, 2) for c in ((v, v + 1), (-v, -v - 1))])
        (sat_, model), calls = self._counted(monkeypatch, sat._propagate, phi)
        assert sat_ and model == {v: v % 2 == 1 for v in range(1, 401)}
        assert calls == 201


class TestExtractStructure:
    def test_absent_on_sparse(self):
        h = Hypergraph(6, 3, [(0, 1, 2)])
        result = extract_structure(h, StructureParams(D=2, C=4.0, epsilon=0.5))
        assert result.status == "absent"

    @pytest.mark.parametrize("n", [0, 5])
    def test_absent_without_edges(self, n):
        result = extract_structure(Hypergraph(n, 3, []), StructureParams(D=1, C=4.0, epsilon=0.5))
        assert result.status == "absent" and result.hypergraph is None
        assert result.d_eff == 0.0

    def test_found_on_dense_block(self):
        edges = list(combinations(range(8), 3))
        h = Hypergraph(8, 3, edges)
        result = extract_structure(h, StructureParams(D=3, C=10.0, epsilon=0.1))
        assert result.status in ("found", "found-codegree-fail")
        assert len(result.hypergraph.edges) >= h.n
        # every vertex of the extracted structure keeps degree <= (r+1) D
        sub = Hypergraph(h.n, 3, list(result.hypergraph.edges))
        assert max(sum(v in e for e in sub.edges) for v in range(h.n)) <= 4 * 3

    def test_codegree_gate(self):
        # a tight cluster of triples through one fixed pair has huge pair
        # co-degree, which a small C must reject
        edges = [(0, 1, v) for v in range(2, 14)]
        edges += list(combinations(range(14), 3))[:40]
        h = Hypergraph(14, 3, edges)
        result = extract_structure(h, StructureParams(D=2, C=0.1, epsilon=0.9))
        if result.status != "absent":
            assert result.status == "found-codegree-fail"

    def test_one_pass_keeps_the_rescanning_greedy(self):
        # at exit no vertex left has D residual edges, every retired vertex
        # was picked or passed r*D output edges, and the picks are those of
        # rescanning from vertex 0 after each one
        rng = random.Random(65)
        for _ in range(60):
            n, r, d = rng.randint(3, 12), rng.choice([2, 3]), rng.randint(1, 4)
            pool = list(combinations(range(n), r))
            edges = [rng.choice(pool) for _ in range(rng.randint(0, 6 * n))]
            h = Hypergraph(n, r, edges)
            eprime, degree, picked, retired = sat._greedy_edges(h, d)
            assert (sorted(eprime), retired) == greedy_structure_rescan(h, d)
            assert len(eprime) == d * picked.bit_count()
            assert degree == [sum(v in h.edges[i] for i in eprime) for v in range(n)]
            capped = sum(1 << v for v in range(n) if degree[v] > r * d)
            assert retired == picked | capped
            for v in range(n):
                if not retired >> v & 1:
                    residual = [
                        i for i, e in enumerate(h.edges)
                        if v in e and i not in eprime and not h.edge_masks[i] & retired
                    ]
                    assert len(residual) < d

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            StructureParams(D=0, C=1.0, epsilon=0.5)
        with pytest.raises(ParameterError):
            StructureParams(D=1, C=1.0, epsilon=1.0)
        # a NaN or infinite C would reach the report as NaN or Infinity
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                StructureParams(D=1, C=bad, epsilon=0.5)
        assert StructureParams(D=1, C=1e300, epsilon=0.5).C == 1e300

    def test_co_degree_bound_that_overflows_is_refused(self):
        # C is finite, but C*d_eff^(1-epsilon) with d_eff = 1.875 is not
        h = Hypergraph(8, 3, list(combinations(range(8), 3)))
        found = extract_structure(h, StructureParams(D=3, C=1e300, epsilon=0.1))
        assert found.status == "found" and math.isfinite(found.stats["delta2_bound"])
        with pytest.raises(ParameterError, match="co-degree bound"):
            extract_structure(h, StructureParams(D=3, C=1.7e308, epsilon=0.1))


AUTO_WIDE_PATH = "dpll (clause width 3 or more: the only container is every literal)"


class TestSolveKsatDense:
    PARAMS = StructureParams(D=4, C=40.0, epsilon=0.3)

    def test_dpll_mode(self):
        phi = random_ksat_formula(8, 20, 3, 1)
        r = solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="dpll"))
        assert r.stats["path"] == "dpll"
        assert r.satisfiable == truth_table_sat(phi)

    def test_containers_mode_requires_structure(self):
        phi = random_ksat_formula(12, 4, 3, 2)
        with pytest.raises(PreconditionError, match="got absent"):
            solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="containers"))
        # the engine needs one clause width of at least 2
        for phi, reason in (
            (CnfFormula(3, [(1, 2), (1, 2, 3)]), "mixed clause widths"),
            (CnfFormula(1, [(1,)] * 8), "clause width below 2"),
        ):
            with pytest.raises(PreconditionError, match=reason):
                solve_ksat_dense(phi, StructureParams(D=2, C=40.0, epsilon=0.3), SatConfig(mode="containers"))

    def test_auto_falls_back_without_structure(self):
        # width 3: the engine's collection would be every literal
        phi = random_ksat_formula(12, 4, 3, 3)
        r = solve_ksat_dense(phi, self.PARAMS)
        assert r.stats["path"] == AUTO_WIDE_PATH
        assert r.satisfiable == truth_table_sat(phi)
        # width 2: 4 edges on 24 literal vertices hold no structure
        phi = random_ksat_formula(12, 4, 2, 3)
        r = solve_ksat_dense(phi, self.PARAMS)
        assert r.stats["path"] == "dpll (no structure)" and r.stats["structure"] == "absent"
        assert r.satisfiable == truth_table_sat(phi)

    def test_auto_builds_the_literal_hypergraph_only_at_width_two(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sat, "build_literal_hypergraph",
            lambda phi: calls.append(phi) or build_literal_hypergraph(phi),
        )
        rng = random.Random(65)
        for k in (3, 4, 5):
            for _ in range(10):
                n = rng.randint(k, 10)
                phi = random_ksat_formula(n, rng.randint(1, 8 * n), k, rng.randrange(10**6))
                r = solve_ksat_dense(phi, self.PARAMS)
                assert r.stats == {"path": AUTO_WIDE_PATH}
                assert r.satisfiable == truth_table_sat(phi)
        assert calls == []
        for _ in range(10):
            n = rng.randint(2, 10)
            phi = random_ksat_formula(n, rng.randint(1, 8 * n), 2, rng.randrange(10**6))
            r = solve_ksat_dense(phi, self.PARAMS)
            assert calls[-1] is phi and "structure" in r.stats
            assert r.satisfiable == truth_table_sat(phi)
        assert len(calls) == 10

    def test_dense_agrees_with_dpll(self):
        rng = random.Random(62)
        used_containers = 0
        for _ in range(20):
            n = rng.randint(6, 12)
            m = rng.randint(6 * n, 10 * n)
            phi = random_ksat_formula(n, m, 3, rng.randrange(10**6))
            r = solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="containers"))
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

    # containers mode's whole stats on three dense 3-CNFs, whose collection
    # is every literal, and a 2-CNF with three containers: the structure
    # counters, the co-degree bound and p are pinned exactly
    PINNED_STATS = (
        ((7, 56, 3, 1), False, None, {
            "structure": "found",
            "structure_stats": {"edges": 24, "vertices": 14, "retired": 6, "max_degree": 8,
                                "delta2": 4, "delta2_bound": 58.333526963653775},
            "path": "containers", "containers": 1, "vacuous": True, "p": 0.9475271860147999,
            "largest_restriction": 7,
        }),
        ((7, 56, 3, 2), False, None, {
            "structure": "found",
            "structure_stats": {"edges": 28, "vertices": 14, "retired": 7, "max_degree": 10,
                                "delta2": 3, "delta2_bound": 64.98019170849884},
            "path": "containers", "containers": 1, "vacuous": True, "p": 0.9330329915368074,
            "largest_restriction": 7,
        }),
        ((7, 56, 3, 3), False, None, {
            "structure": "found",
            "structure_stats": {"edges": 28, "vertices": 14, "retired": 7, "max_degree": 11,
                                "delta2": 4, "delta2_bound": 64.98019170849884},
            "path": "containers", "containers": 1, "vacuous": True, "p": 0.9330329915368074,
            "largest_restriction": 7,
        }),
        ((5, 15, 2, 3), True, {1: False, 2: False, 3: False, 4: False, 5: False}, {
            "structure": "found",
            "structure_stats": {"edges": 12, "vertices": 10, "retired": 3, "max_degree": 5,
                                "delta2": 2, "delta2_bound": 45.44507908795555},
            "path": "containers", "containers": 3, "vacuous": False, "p": 0.9730223435250981,
            "winning_container": 0, "largest_restriction": 3,
        }),
    )

    @pytest.mark.parametrize("formula, satisfiable, model, stats", PINNED_STATS)
    def test_containers_mode_stats_are_pinned(self, formula, satisfiable, model, stats):
        r = solve_ksat_dense(random_ksat_formula(*formula), self.PARAMS, SatConfig(mode="containers"))
        assert (r.satisfiable, r.model) == (satisfiable, model)
        assert r.stats == stats
        assert list(r.stats) == list(stats) and list(r.stats["structure_stats"]) == list(stats["structure_stats"])

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

    def test_engine_params_from_the_extracted_structure(self, monkeypatch):
        # the engine runs on the extracted sub-hypergraph at the p the
        # solver reports
        rng = random.Random(64)
        seen = []
        monkeypatch.setattr(
            sat, "build_hypergraph_collection",
            lambda h, p: seen.append((h, p)) or build_hypergraph_collection(h, p),
        )
        for _ in range(10):
            n = rng.randint(6, 10)
            phi = random_ksat_formula(n, rng.randint(6 * n, 10 * n), 3, rng.randrange(10**6))
            r = solve_ksat_dense(phi, self.PARAMS, SatConfig(mode="containers"))
            h, p = seen[-1]
            host = build_literal_hypergraph(phi)
            assert h.edges == extract_structure(host, self.PARAMS).hypergraph.edges
            assert p == r.stats["p"]
        assert len(seen) == 10
