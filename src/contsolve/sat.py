"""Dense k-SAT through containers on the literal hypergraph.

Each clause becomes a hyperedge on the negations of its literals, so an
assignment satisfies the formula exactly when its set of true literals spans
no edge. On formulas dense enough to contain a well-spread sub-hypergraph
(many edges per vertex, bounded degree and co-degree), containers for that
sub-hypergraph cover every candidate literal set. Each inclusion-maximal
container is a set of DPLL assumptions, every literal outside it false, that
DPLL propagates once on the formula itself; `stats["largest_restriction"]`
is the most free variables any container left before DPLL. At width 3 or
more a lone literal excludes nothing, so the collection is every literal;
`auto` runs DPLL there, and on whatever the engine cannot take, naming the
reason in `stats["path"]`."""

from __future__ import annotations

import math
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
    formula, with one edge per clause: the vertices of its negated literals.

    `CnfFormula` already rejects a clause that repeats a variable, so each
    edge has k distinct vertices below 2n: the edges are built sorted, with
    their masks, and taken as they are."""
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
    edges = [tuple(sorted(map(negated.__getitem__, clause))) for clause in phi.clauses]
    # bit[lit] is the bit of -lit's vertex; those of a clause are distinct,
    # so they sum to its edge's mask
    bit = [None, *(1 << v for v in negated[1:])]
    masks = [sum(map(bit.__getitem__, clause)) for clause in phi.clauses]
    h = object.__new__(Hypergraph)
    _fill_hypergraph(h, 2 * n, k, edges, masks)
    return h


@dataclass
class Restriction:
    """What a container forces: every literal outside `kept` is false.

    `forced` maps each variable with exactly one kept literal to that
    literal's value. contradiction means some variable kept neither literal,
    and then `forced` is empty. `unassigned_before_propagation` counts the
    variables that keep both literals: free until DPLL propagates `forced`,
    which may still refute it."""

    contradiction: bool
    forced: dict[int, bool]
    unassigned_before_propagation: int


def _propagate(clauses, forced: dict[int, bool]):
    """Apply `forced` and unit-propagate until fixpoint. Returns simplified
    clauses as new lists, or None on contradiction; `clauses` is only read,
    and `forced` is extended in place."""
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
    """The assumptions that container `kept` stands for. It neither builds a
    formula nor propagates: `dpll(phi, assumptions=forced)` does that."""
    if kept.mask >> (2 * phi.num_vars):
        raise ParameterError("kept must be a mask of the formula's literal vertices")
    forced: dict[int, bool] = {}
    for var in range(1, phi.num_vars + 1):
        pos = literal_vertex(var) in kept
        neg = literal_vertex(-var) in kept
        if pos and neg:
            continue
        if not pos and not neg:
            return Restriction(True, {}, 0)
        forced[var] = pos  # exactly one literal kept; it must be the true one
    unassigned = phi.num_vars - len(forced)
    if unassigned != len(kept) - phi.num_vars:
        raise RuntimeError("restriction size accounting failed; this is a bug")
    return Restriction(False, forced, unassigned)


def dpll(phi: CnfFormula, assumptions: dict[int, bool] | None = None) -> tuple[bool, dict[int, bool] | None]:
    """Unit propagation + pure-literal elimination + branching on the lowest
    free variable of the first clause. Returns a total model, which keeps
    every assumption, when SAT.

    It runs on an explicit stack of (clauses, model) entries, each entry's
    clauses propagated when it pops; a branch pushes False, then True."""
    stack = [(phi.clauses, dict(assumptions or {}))]
    while stack:
        clauses, model = stack.pop()
        clauses = _propagate(clauses, model)
        if clauses is None:
            continue
        if not clauses:
            break
        # pure literals
        lits = {lit for clause in clauses for lit in clause}
        pures = {abs(lit): lit > 0 for lit in lits if -lit not in lits}
        if pures:
            stack.append((clauses, {**model, **pures}))
            continue
        branch = min(abs(l) for l in clauses[0])
        stack.append((clauses, {**model, branch: False}))
        stack.append((clauses, {**model, branch: True}))
    else:  # every branch ended in a conflict
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
        # a NaN or infinite C would print as NaN or Infinity in delta2_bound
        if not 0 < self.C < math.inf or not 0 <= self.epsilon < 1:
            raise ParameterError("need a finite C > 0 and epsilon in [0, 1)")


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
    failure there is reported as its own outcome. A bound that overflows is
    refused with ParameterError."""
    r = h.r
    d = params.D
    eprime, degree, _, retired = _greedy_edges(h, d)
    eprime.sort()
    edges = [h.edges[i] for i in eprime]
    stats = {"edges": len(edges), "vertices": h.n, "retired": retired.bit_count()}
    if not edges or len(edges) < h.n:
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
        if not math.isfinite(bound):
            # a finite C can still overflow here, and the bound would print
            # as Infinity in the report
            raise ParameterError(f"co-degree bound C*d_eff^(1-epsilon) overflows at C = {params.C}")
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
        sat, model = dpll(phi, assumptions=restriction.forced)
        if sat:
            stats["winning_container"] = idx
            stats["largest_restriction"] = largest
            return SatResult(True, model, stats)
    stats["largest_restriction"] = largest
    return SatResult(False, None, stats)
