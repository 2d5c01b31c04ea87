"""Fingerprints and containers for independent sets.

Two constructions live here: the exact scheme for graphs (scan an independent
set in a fixed vertex order, keep vertices that contribute enough fresh
neighbors, expand the kept fingerprint into a container), and a pragmatic
engine for r-uniform hypergraphs built on the same idea, with exclusions
playing the role of neighborhoods: a vertex is excluded by a set F once some
edge has all its other vertices in F. One rule, `_exclusions`, drives the
fingerprint scan, the container expansion and the enumeration of candidate
fingerprints, which is a single budgeted walk per threshold. Coverage -- every
independent set is inside the container of its fingerprint -- holds by
construction in both; container size bounds are certified for regular graphs
and measured/reported for the hypergraph engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VertexSet,
)


@dataclass(frozen=True)
class ContainerParams:
    """Graph-scheme parameters: threshold slack epsilon and degree context d."""

    epsilon: float
    d: float

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if self.d <= 0:
            raise ParameterError("degree context must be positive")

    @property
    def q(self) -> float:
        return 1.0 / (self.epsilon * self.d)


@dataclass(frozen=True)
class HypergraphContainerParams:
    p: float
    C: float
    r: int

    def __post_init__(self):
        if not 0 < self.p < 1 + 1e-12:
            raise ParameterError(f"p must be in (0, 1], got {self.p}")
        if self.C <= 0:
            raise ParameterError("co-degree constant must be positive")
        if self.r < 2:
            raise ParameterError("uniformity must be at least 2")


@dataclass
class ContainerCollection:
    """Deduplicated containers plus the parameters that produced them.

    `locate(I)` recomputes the container assigned to a concrete independent
    set; the result is always a member of `containers`.
    """

    containers: tuple[VertexSet, ...]
    params: object
    source: str  # "regular-graph" | "almost-regular-graph" | "hypergraph"
    fingerprint_cap: int
    low_degree: bool = False
    stats: dict = field(default_factory=dict)
    locate: Callable[[VertexSet], VertexSet] | None = None

    def __len__(self) -> int:
        return len(self.containers)


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal distinct masks, largest first, ties by mask.

    Every independent set lies in some container, hence in some maximal one,
    so a solver confined to containers needs only these."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        if all(m & ~other for other in kept):
            kept.append(m)
    return kept


def fingerprint(g: Graph, independent: VertexSet, params: ContainerParams) -> VertexSet:
    """Scan the independent set in vertex-id order, keeping v when it has at
    least epsilon*d neighbors outside the current fingerprint neighborhood."""
    if not g.is_independent(independent.mask):
        raise PreconditionError("input set is not independent")
    threshold = params.epsilon * params.d
    nf = 0  # union of neighborhoods of the fingerprint so far
    f = 0
    for v in independent:
        if (g.adj_mask[v] & ~nf).bit_count() >= threshold:
            f |= 1 << v
            nf |= g.adj_mask[v]
    return VertexSet(f)


def boundary_set(g: Graph, fp: VertexSet, params: ContainerParams) -> VertexSet:
    """Vertices outside the fingerprint and its neighborhood whose own
    neighborhood is almost entirely absorbed: at least (1-epsilon)*d neighbors
    already neighbor the fingerprint."""
    nf = g.neighborhood_mask(fp.mask)
    threshold = (1.0 - params.epsilon) * params.d
    out = 0
    forbidden = fp.mask | nf
    for v in range(g.n):
        if (forbidden >> v) & 1:
            continue
        if (g.adj_mask[v] & nf).bit_count() >= threshold:
            out |= 1 << v
    return VertexSet(out)


def container_of(g: Graph, fp: VertexSet, params: ContainerParams) -> VertexSet:
    if not g.is_independent(fp.mask):
        raise PreconditionError("fingerprint is not independent")
    return fp | boundary_set(g, fp, params)


def container_sparsity(g: Graph, c: VertexSet) -> int:
    """Number of edges of g induced inside the container."""
    return g.induced_edge_count(c.mask)


def _independent_subsets_upto(conflict_mask, n: int, cap: int, budget: int | None = None):
    """Yield bitmasks of all independent subsets of size <= cap in ascending
    lexicographic (bitmask) order. `conflict_mask(v, current)` gives the
    vertices that cannot join once v is added to the set `current`; more than
    `budget` subsets raise SizeLimitError."""
    count = 0

    def rec(start: int, current: int, blocked: int, size: int):
        nonlocal count
        yield current
        count += 1
        if budget is not None and count > budget:
            raise SizeLimitError("fingerprint-enumeration", f"budget {budget} exceeded")
        if size == cap:
            return
        for v in range(start, n):
            if (blocked >> v) & 1:
                continue
            yield from rec(v + 1, current | (1 << v), blocked | conflict_mask(v, current), size + 1)

    yield from rec(0, 0, 0, 0)


def build_regular_collection(
    g: Graph,
    epsilon: float,
    *,
    force: bool = False,
    budget: int | None = None,
) -> ContainerCollection:
    """Container collection for a d-regular graph.

    When d <= 2/epsilon^2 the construction gives no useful size bound; by
    default the result is flagged low-degree with no containers so solvers can
    switch to their non-container path. `force=True` runs the construction
    anyway (coverage still holds; size bounds are still certified since their
    proof needs only regularity). More than `budget` candidate fingerprints
    raise SizeLimitError; without a budget the enumeration is unbounded.
    """
    if g.n == 0:
        raise ParameterError("empty graph")
    if not g.is_regular():
        raise ParameterError(
            "graph is not regular; use the almost-regular (hypergraph engine) builder"
        )
    d = g.degree(0)
    if d == 0:
        if not 0 < epsilon < 0.5:
            raise ParameterError(f"epsilon must be in (0, 1/2), got {epsilon}")
        return ContainerCollection(
            containers=(),
            params=None,
            source="regular-graph",
            fingerprint_cap=0,
            low_degree=True,
            stats={"mode": "low-degree-flag", "note": "edgeless"},
            locate=None,
        )
    params = ContainerParams(epsilon=epsilon, d=float(d))
    low_degree = d <= 2.0 / (epsilon * epsilon)
    if low_degree and not force:
        return ContainerCollection(
            containers=(),
            params=params,
            source="regular-graph",
            fingerprint_cap=0,
            low_degree=True,
            stats={"mode": "low-degree-flag"},
            locate=None,
        )

    cap = min(g.n, math.floor(params.q * g.n))
    size_bound = (1.0 / (2.0 - epsilon) + params.q) * g.n
    dedup: dict[int, VertexSet] = {}
    for f_mask in _independent_subsets_upto(lambda v, _: g.adj_mask[v], g.n, cap, budget):
        fp = VertexSet(f_mask)
        cont = fp | boundary_set(g, fp, params)
        if len(cont) > size_bound + 1e-9:
            raise RuntimeError(
                f"container of size {len(cont)} violates the regular-graph bound "
                f"{size_bound:.3f}; this indicates a bug"
            )
        dedup[cont.mask] = cont
    containers = tuple(sorted(dedup.values(), key=lambda c: (c.cardinality, c.mask)))

    def locate(independent: VertexSet) -> VertexSet:
        return container_of(g, fingerprint(g, independent, params), params)

    sizes = [c.cardinality for c in containers]
    return ContainerCollection(
        containers=containers,
        params=params,
        source="regular-graph",
        fingerprint_cap=cap,
        low_degree=low_degree,
        stats={
            "container_count": len(containers),
            "max_container_size": max(sizes, default=0),
            "size_bound": size_bound,
            "forced": force and low_degree,
        },
        locate=locate,
    )


# --- r-uniform hypergraph engine ------------------------------------------

@dataclass(frozen=True)
class CodegreeCheck:
    i: int
    delta: int
    bound: float

    @property
    def ok(self) -> bool:
        return self.delta <= self.bound + 1e-9


@dataclass(frozen=True)
class CodegreeReport:
    checks: tuple[CodegreeCheck, ...]
    note: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)


class CodegreeConditionError(ValueError):
    def __init__(self, report: CodegreeReport):
        failing = [c.i for c in report.checks if not c.ok]
        super().__init__(
            f"co-degree condition violated for i in {failing}"
            + (f" ({report.note})" if report.note else "")
        )
        self.report = report


def check_codegree_conditions(h: Hypergraph, params: HypergraphContainerParams) -> CodegreeReport:
    """Per-i comparison of the measured max co-degree against C*p^(i-1)*|E|/|V|."""
    from .core import max_codegree

    if h.n == 0 or not h.edges:
        return CodegreeReport(checks=(), note="zero edge density")
    density = len(h.edges) / h.n
    checks = []
    for i in range(1, h.r + 1):
        bound = params.C * (params.p ** (i - 1)) * density
        checks.append(CodegreeCheck(i=i, delta=max_codegree(h, i), bound=bound))
    return CodegreeReport(checks=tuple(checks))


def _exclusions(h: Hypergraph, v: int, inside: int) -> int:
    """Vertices u such that some edge through v has every vertex except u in
    `inside`: with v in `inside`, the vertices no independent superset of
    `inside` can take. This one rule serves the fingerprint scan, the
    container expansion and the fingerprint enumeration; for r=2 it is the
    set of neighbors of v outside `inside`."""
    outside = ~inside
    out = 0
    for idx in h.incidence[v]:
        rest = h.edge_masks[idx] & outside
        if rest.bit_count() == 1:
            out |= rest
    return out


def hypergraph_fingerprint(h: Hypergraph, independent: VertexSet, tau: int) -> VertexSet:
    """Multipass scan: a vertex of I joins F when it would newly exclude at
    least tau vertices; passes repeat until a full pass adds nothing."""
    if not h.is_independent(independent.mask):
        raise PreconditionError("input set is not independent in the hypergraph")
    members = independent.to_list()
    f = excluded = 0
    changed = True
    while changed:
        changed = False
        for v in members:
            if (f >> v) & 1:
                continue
            new = _exclusions(h, v, f | (1 << v))
            if (new & ~excluded).bit_count() >= tau:
                f |= 1 << v
                excluded |= new
                changed = True
    return VertexSet(f)


def hypergraph_container(h: Hypergraph, fp: VertexSet, tau: int) -> VertexSet:
    """F plus every non-excluded vertex that would newly exclude fewer than
    tau vertices. Contains every independent set whose fingerprint is F."""
    f = fp.mask
    excluded = 0
    for v in fp:
        excluded |= _exclusions(h, v, f)
    out = f
    forbidden = f | excluded
    for v in range(h.n):
        if (forbidden >> v) & 1:
            continue
        if (_exclusions(h, v, f | (1 << v)) & ~excluded).bit_count() < tau:
            out |= 1 << v
    return VertexSet(out)


def build_hypergraph_collection(
    h: Hypergraph,
    params: HypergraphContainerParams,
    *,
    candidate_budget: int = 20000,
    max_containers: int | None = None,
) -> ContainerCollection:
    """Container collection for an r-uniform hypergraph.

    The exclusion threshold tau starts at ~1/((r-1)p) and is raised until the
    candidate fingerprints fit the budget and, when requested, the deduped
    collection fits max_containers (larger tau means fewer, smaller
    fingerprints and larger containers; coverage is unaffected). Container
    sizes are measured and reported in the stats, not certified.
    """
    if h.r != params.r:
        raise ParameterError(f"params are for uniformity {params.r}, hypergraph has {h.r}")
    if not h.edges:
        raise ParameterError("hypergraph has no edges (zero edge density)")
    report = check_codegree_conditions(h, params)
    if not report.ok:
        raise CodegreeConditionError(report)

    def conflict(v: int, current: int) -> int:
        return _exclusions(h, v, current | (1 << v))

    tau = max(1, math.ceil(1.0 / ((h.r - 1) * params.p)))
    fallback = None  # last build whose containers were not all-of-V
    while True:
        cap = h.n // tau
        try:
            fingerprints = list(_independent_subsets_upto(conflict, h.n, cap, candidate_budget))
        except SizeLimitError:
            tau += max(1, tau // 2)
            continue
        count = len(fingerprints)
        dedup: dict[int, VertexSet] = {}
        max_seen = 0
        for f_mask in fingerprints:
            fp = VertexSet(f_mask)
            cont = hypergraph_container(h, fp, tau)
            max_seen = max(max_seen, cont.cardinality)
            dedup[cont.mask] = cont
        if not (len(dedup) == 1 and max_seen == h.n):
            fallback = (tau, cap, count, dedup, max_seen)
        if max_containers is not None and len(dedup) > max_containers and cap > 0:
            tau += max(1, tau // 2)
            continue
        break
    if len(dedup) == 1 and max_seen == h.n and fallback is not None:
        # raising the threshold degenerated the collection to the single
        # full-vertex-set container; prefer the last informative build even
        # if it overshoots the requested collection size
        tau, cap, count, dedup, max_seen = fallback
    containers = tuple(sorted(dedup.values(), key=lambda c: (c.cardinality, c.mask)))

    def locate(independent: VertexSet) -> VertexSet:
        return hypergraph_container(h, hypergraph_fingerprint(h, independent, tau), tau)

    return ContainerCollection(
        containers=containers,
        params=params,
        source="hypergraph",
        fingerprint_cap=cap,
        low_degree=False,
        stats={
            "container_count": len(containers),
            "max_container_size": max_seen,
            "tau": tau,
            "fingerprint_cap_ratio_M": (cap / (params.p * h.n)) if params.p * h.n > 0 else None,
            "candidate_count": count,
        },
        locate=locate,
    )


def graph_as_hypergraph(g: Graph) -> Hypergraph:
    return Hypergraph(g.n, 2, g.edges)


def build_almost_regular_collection(
    g: Graph,
    degree_ratio: float,
    *,
    epsilon: float = 0.25,
    candidate_budget: int = 20000,
    max_containers: int | None = None,
) -> ContainerCollection:
    """Graph containers via the hypergraph engine at r=2.

    degree_ratio is the max/average degree bound the caller asserts; the
    engine's spread constant is twice it because edge density |E|/|V| is
    half the average degree. p = 1/(epsilon*avg_degree) mirrors the regular
    scheme, where a fingerprint vertex must bring epsilon*d new exclusions:
    any larger threshold would exceed vertex degrees and every container
    would degenerate to the full vertex set. The co-degree conditions still
    hold: pair co-degree is 1 in a simple graph and p >= 1/(ratio*d) since
    epsilon < 1 <= ratio.
    """
    if g.m == 0:
        raise ParameterError("graph has no edges (zero edge density)")
    if not 0 < epsilon < 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2), got {epsilon}")
    if g.max_degree > degree_ratio * g.average_degree + 1e-9:
        raise ParameterError(
            f"max degree {g.max_degree} exceeds {degree_ratio} times the "
            f"average degree {g.average_degree:.3f}"
        )
    c_eng = 2.0 * degree_ratio
    p = min(1.0, 1.0 / (epsilon * g.average_degree))
    params = HypergraphContainerParams(p=p, C=c_eng, r=2)
    coll = build_hypergraph_collection(
        graph_as_hypergraph(g),
        params,
        candidate_budget=candidate_budget,
        max_containers=max_containers,
    )
    return replace(coll, source="almost-regular-graph")


def collection_report(coll: ContainerCollection, g: Graph | None = None) -> dict:
    """JSON-ready summary: parameters, count, size histogram, sparsity histogram."""
    sizes: dict[int, int] = {}
    for c in coll.containers:
        sizes[c.cardinality] = sizes.get(c.cardinality, 0) + 1
    report = {
        "source": coll.source,
        "container_count": len(coll.containers),
        "fingerprint_cap": coll.fingerprint_cap,
        "low_degree": coll.low_degree,
        "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        "stats": {k: v for k, v in coll.stats.items()},
    }
    if isinstance(coll.params, ContainerParams):
        report["params"] = {"epsilon": coll.params.epsilon, "d": coll.params.d, "q": coll.params.q}
    elif isinstance(coll.params, HypergraphContainerParams):
        report["params"] = {"p": coll.params.p, "C": coll.params.C, "r": coll.params.r}
    if g is not None:
        sparsities: dict[int, int] = {}
        for c in coll.containers:
            s = container_sparsity(g, c)
            sparsities[s] = sparsities.get(s, 0) + 1
        report["sparsity_histogram"] = {str(k): v for k, v in sorted(sparsities.items())}
    return report
