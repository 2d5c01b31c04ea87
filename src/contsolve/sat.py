"""Dense k-SAT through containers on the literal hypergraph.

Each clause becomes a hyperedge on the negations of its literals, so an
assignment satisfies the formula exactly when its set of true literals spans
no edge. On formulas dense enough to contain a well-spread sub-hypergraph
(many edges per vertex, bounded degree and co-degree), containers for that
sub-hypergraph cover every candidate literal set; restricting the formula to
each inclusion-maximal container forces all missing literals false and leaves
a smaller instance for a plain DPLL base solver. At width 3 or more a lone
literal excludes nothing, so the collection is every literal; `auto` runs
DPLL there, and on whatever the engine cannot take, naming the reason in
`stats["path"]`."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CnfFormula,
    Hypergraph,
    ParameterError,
    PreconditionError,
    VertexSet,
    _fill_hypergraph,
    max_codegree,
)
from .containers import build_hypergraph_collection, maximal_masks


def literal_vertex(literal: int) -> int:
    """The literal's vertex among the 2n literal vertices: variable i
    (1-based) owns 2(i-1) for x_i and 2(i-1)+1 for its negation."""
    var = abs(literal) - 1
    return 2 * var if literal > 0 else 2 * var + 1


def build_literal_hypergraph(phi: CnfFormula) -> Hypergraph:
    """The k-uniform hypergraph on the 2n literal vertices of a width-k
    formula, with one edge per clause: the vertices of its negated literals."""
    if not phi.clauses:
        raise ParameterError("formula has no clauses")
    k = len(phi.clauses[0])
    for clause in phi.clauses:
        if len(clause) != k:
            raise ParameterError(
                f"mixed clause widths ({len(clause)} vs {k}); pad or split upstream"
            )
    n = phi.num_vars
    # negated[lit] is the vertex of -lit; a negative lit indexes from the end
    negated = [None, *(literal_vertex(-lit) for lit in (*range(1, n + 1), *range(-n, 0)))]
    # the Hypergraph constructor sorts each edge
    edges = [tuple(map(negated.__getitem__, clause)) for clause in phi.clauses]
    return Hypergraph(2 * n, k, edges)


@dataclass
class Restriction:
    """Formula after forcing every literal outside `kept` to false.

    contradiction means some variable lost both literals or the forced
    values already falsify a clause. `forced` accumulates both the vertex
    forcing and eager unit propagation; `formula` keeps only the surviving
    clauses over the still-free variables."""

    contradiction: bool
    forced: dict[int, bool]
    formula: CnfFormula | None
    unassigned_before_propagation: int


def _propagate(clauses: list[list[int]], forced: dict[int, bool]):
    """Apply `forced` and unit-propagate until fixpoint. Returns simplified
    clauses or None on contradiction; extends `forced` in place."""
    while True:
        new_clauses: list[list[int]] = []
        unit: int | None = None
        for clause in clauses:
            reduced = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in forced:
                    if (lit > 0) == forced[var]:
                        satisfied = True
                        break
                else:
                    reduced.append(lit)
            if satisfied:
                continue
            if not reduced:
                return None
            if len(reduced) == 1 and unit is None:
                unit = reduced[0]
            new_clauses.append(reduced)
        if unit is None:
            return new_clauses
        forced[abs(unit)] = unit > 0
        clauses = new_clauses


def restrict_formula(phi: CnfFormula, kept: VertexSet) -> Restriction:
    """Force every literal outside `kept` false and unit-propagate. When
    `kept` holds every literal and no clause is a unit, there is nothing to
    force or propagate, and the restriction's formula is `phi` itself."""
    if kept.mask >> (2 * phi.num_vars):
        raise ParameterError("kept must be a mask of the formula's literal vertices")
    forced: dict[int, bool] = {}
    for var in range(1, phi.num_vars + 1):
        pos = literal_vertex(var) in kept
        neg = literal_vertex(-var) in kept
        if pos and neg:
            continue
        if not pos and not neg:
            return Restriction(True, {}, None, 0)
        forced[var] = pos  # exactly one literal kept; it must be the true one
    unassigned = phi.num_vars - len(forced)
    if unassigned != len(kept) - phi.num_vars:
        raise RuntimeError("restriction size accounting failed; this is a bug")
    if not forced and 1 not in map(len, phi.clauses):
        return Restriction(False, forced, phi, unassigned)
    clauses = _propagate([list(c) for c in phi.clauses], forced)
    if clauses is None:
        return Restriction(True, forced, None, unassigned)
    formula = CnfFormula(phi.num_vars, [tuple(c) for c in clauses])
    return Restriction(False, forced, formula, unassigned)


def dpll(phi: CnfFormula, assumptions: dict[int, bool] | None = None) -> tuple[bool, dict[int, bool] | None]:
    """Unit propagation + pure-literal elimination + branching on the lowest
    free variable of the first clause. Returns a total model when SAT."""
    forced = dict(assumptions or {})
    clauses = _propagate([list(c) for c in phi.clauses], forced)
    if clauses is None:
        return False, None

    def rec(clauses: list[list[int]], model: dict[int, bool]) -> dict[int, bool] | None:
        if not clauses:
            return model
        # pure literals
        polarity: dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                polarity[abs(lit)] = polarity.get(abs(lit), 0) | (1 if lit > 0 else 2)
        pures = {v: p == 1 for v, p in polarity.items() if p != 3}
        if pures:
            model = dict(model)
            model.update(pures)
            reduced = _propagate(clauses, model)
            if reduced is None:
                return None
            return rec(reduced, model)
        branch = min(abs(l) for l in clauses[0])
        for value in (True, False):
            trial = dict(model)
            trial[branch] = value
            reduced = _propagate(clauses, trial)
            if reduced is None:
                continue
            result = rec(reduced, trial)
            if result is not None:
                return result
        return None

    model = rec(clauses, forced)
    if model is None:
        return False, None
    full = {v: model.get(v, False) for v in range(1, phi.num_vars + 1)}
    if not phi.is_satisfied_by(full):
        raise RuntimeError("solver model fails the formula; this is a bug")
    return True, full


@dataclass(frozen=True)
class StructureParams:
    D: int  # edges-per-vertex target
    C: float  # spread constant for the pair co-degree check
    epsilon: float  # co-degree decay exponent

    def __post_init__(self):
        if self.D < 1:
            raise ParameterError("D must be at least 1")
        if self.C <= 0 or not 0 <= self.epsilon < 1:
            raise ParameterError("need C > 0 and epsilon in [0, 1)")


@dataclass
class StructureResult:
    status: str  # "found" | "absent" | "found-codegree-fail"
    hypergraph: Hypergraph | None  # the extracted sub-hypergraph on the host's vertices
    d_eff: float
    stats: dict = field(default_factory=dict)

    @property
    def usable(self) -> bool:
        return self.status == "found"


def _greedy_edges(h: Hypergraph, d: int) -> tuple[list[int], list[int], int, int]:
    """The greedy of `extract_structure` in one pass over the vertices. An
    edge is residual while it meets no retired vertex; a moved edge holds
    its picker, which retires. Residual counts only fall, so a vertex passed
    over never qualifies later. Returns the moved edge indices, each
    vertex's output degree, and the masks of the picked and the retired
    vertices."""
    cap = h.r * d
    picked = retired = 0
    degree = [0] * h.n
    eprime: list[int] = []
    incidence: list[list[int]] = [[] for _ in range(h.n)]  # each vertex's edge indices
    for idx, e in enumerate(h.edges):
        for v in e:
            incidence[v].append(idx)
    for v in range(h.n):
        if (retired >> v) & 1:
            continue
        residual = [i for i in incidence[v] if not h.edge_masks[i] & retired]
        if len(residual) < d:
            continue
        picked |= 1 << v
        retired |= 1 << v
        for idx in residual[:d]:
            eprime.append(idx)
            for u in h.edges[idx]:
                degree[u] += 1
                if degree[u] > cap:
                    retired |= 1 << u
    return eprime, degree, picked, retired


def extract_structure(h: Hypergraph, params: StructureParams) -> StructureResult:
    """Greedy dense-substructure extraction.

    While some non-retired vertex has D residual edges, move D of them into
    the output and retire the vertex, plus any vertex whose output degree
    exceeds r*D (so the output max degree stays at most (r+1)*D). Success
    means the output has at least one edge per vertex of the host; the pair
    co-degree condition is then checked against the measured density and a
    failure there is reported as its own outcome."""
    r = h.r
    d = params.D
    eprime, degree, _, retired = _greedy_edges(h, d)
    eprime.sort()
    edges = [h.edges[i] for i in eprime]
    stats = {"edges": len(edges), "vertices": h.n, "retired": retired.bit_count()}
    if len(edges) < h.n:
        return StructureResult("absent", None, len(edges) / h.n if h.n else 0.0, stats)
    # the host's edges are already checked: take them and their masks as they are
    sub = object.__new__(Hypergraph)
    _fill_hypergraph(sub, h.n, r, edges, [h.edge_masks[i] for i in eprime])
    max_deg = max(degree)
    if max_deg > (r + 1) * d:
        raise RuntimeError("extraction degree cap violated; this is a bug")
    d_eff = len(edges) / h.n
    stats["max_degree"] = max_deg
    if r >= 2:
        delta2 = max_codegree(sub, 2)
        bound = params.C * (d_eff ** (1.0 - params.epsilon))
        stats["delta2"] = delta2
        stats["delta2_bound"] = bound
        if delta2 > bound + 1e-9:
            return StructureResult("found-codegree-fail", sub, d_eff, stats)
    return StructureResult("found", sub, d_eff, stats)


@dataclass
class SatConfig:
    mode: str = "auto"  # auto | dpll | containers


@dataclass
class SatResult:
    satisfiable: bool
    model: dict[int, bool] | None
    stats: dict = field(default_factory=dict)


def solve_ksat_dense(
    phi: CnfFormula, params: StructureParams, config: SatConfig | None = None
) -> SatResult:
    config = config or SatConfig()
    if config.mode not in ("auto", "dpll", "containers"):
        raise ParameterError(f"unknown mode {config.mode!r}")
    if config.mode == "dpll" or not phi.clauses:
        sat, model = dpll(phi)
        return SatResult(sat, model, {"path": "dpll"})
    stats: dict = {}
    if any(len(c) != phi.k for c in phi.clauses):
        reason = "mixed clause widths"
    elif phi.k < 2:
        reason = "clause width below 2"
    elif phi.k >= 3 and config.mode == "auto":
        # a lone literal excludes nothing at r >= 3, so the engine's
        # collection (`build_hypergraph_collection`) is {V}
        reason = "clause width 3 or more: the only container is every literal"
    else:
        structure = extract_structure(build_literal_hypergraph(phi), params)
        stats = {"structure": structure.status, "structure_stats": structure.stats}
        reason = None if structure.usable else "no structure"
    if reason is not None:
        if config.mode == "containers":
            raise PreconditionError(
                "containers mode requires one clause width of at least 2 and a usable "
                f"structure (got {stats.get('structure', reason)})"
            )
        sat, model = dpll(phi)
        stats["path"] = f"dpll ({reason})"
        return SatResult(sat, model, stats)

    sub = structure.hypergraph
    p = min(1.0, structure.d_eff ** (-params.epsilon / phi.k)) if structure.d_eff > 0 else 1.0
    coll = build_hypergraph_collection(sub, p)
    # a collection that contains V reduces to one whole-formula solve
    kept = maximal_masks(c.mask for c in coll.containers)
    stats["path"] = "containers"
    stats["containers"] = len(kept)
    stats["vacuous"] = coll.stats["vacuous"]
    stats["p"] = p
    largest = 0
    for idx, container in enumerate(kept):
        restriction = restrict_formula(phi, VertexSet(container))
        if restriction.contradiction:
            continue
        largest = max(largest, restriction.unassigned_before_propagation)
        sat, model = dpll(restriction.formula, assumptions=restriction.forced)
        if sat:
            if not phi.is_satisfied_by(model):
                raise RuntimeError("container model fails the formula; this is a bug")
            stats["winning_container"] = idx
            stats["largest_restriction"] = largest
            return SatResult(True, model, stats)
    stats["largest_restriction"] = largest
    return SatResult(False, None, stats)
