"""Fingerprints and containers for independent sets.

Two constructions live here: the exact scheme for graphs (scan an independent
set in a fixed vertex order, keep vertices that contribute enough fresh
neighbors, expand the kept fingerprint into a container), and a pragmatic
engine for r-uniform hypergraphs built on the same idea, with exclusions
playing the role of neighborhoods: a vertex is excluded by a set F once some
edge has all its other vertices in F. One rule, `_exclusions`, drives the
engine's fingerprint scan and container expansion, and one mask helper,
`_container_mask`, expands fingerprints into containers. Both scans are single
pass, so the fingerprints of the independent sets are exactly the fixed
points fp(F) == F, and these are prefix-closed: one depth-first walker,
`_fixed_points`, lists them for both builders, pruning at the first vertex
that brings too few new exclusions (the algorithmic graph container lemma of
Kleitman-Winston and Sapozhenko). At r>=3 a lone vertex excludes nothing, so
the walk stops at the empty fingerprint and the engine's collection is {V}.
Coverage -- every independent set is inside the container of its
fingerprint -- holds by construction in both; container size bounds are
certified for regular graphs and measured/reported for the hypergraph engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

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
    set; the result is always a member of `containers`. `stats["vacuous"]` is
    true when V itself is a container, so the collection prunes nothing.
    """

    containers: tuple[VertexSet, ...]
    params: object
    source: str  # "regular-graph" | "almost-regular-graph" | "hypergraph"
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
    return VertexSet(_boundary_mask(g, fp.mask, g.neighborhood_mask(fp.mask), params))


def _boundary_mask(g: Graph, f: int, nf: int, params: ContainerParams) -> int:
    threshold = (1.0 - params.epsilon) * params.d
    out = 0
    free = ((1 << g.n) - 1) & ~(f | nf)
    while free:
        low = free & -free
        free ^= low
        if (g.adj_mask[low.bit_length() - 1] & nf).bit_count() >= threshold:
            out |= low
    return out


def container_of(g: Graph, fp: VertexSet, params: ContainerParams) -> VertexSet:
    if not g.is_independent(fp.mask):
        raise PreconditionError("fingerprint is not independent")
    return fp | boundary_set(g, fp, params)


def container_sparsity(g: Graph, c: VertexSet) -> int:
    """Number of edges of g induced inside the container."""
    return g.induced_edge_count(c.mask)


def _fixed_points(
    excludes: Sequence[int], threshold: float, budget: int | None = None
) -> Iterator[tuple[int, int]]:
    """Depth-first walk of the single-pass fingerprint fixed points, each
    yielded once as (F, vertices F excludes).

    `excludes[v]` is what v excludes when it joins a set that does not
    exclude it (its neighborhood, in a graph). F is a fixed point, fp(F) ==
    F, exactly when each of its vertices, in id order, newly excluded at least
    `threshold` vertices; so fixed points are prefix-closed, and the walk
    extends F only by a vertex v > max F, not excluded, that passes the test.
    They are exactly the fingerprints of the independent sets, each with at
    most n/threshold vertices. More than `budget` of them raise
    SizeLimitError."""
    full = (1 << len(excludes)) - 1
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        start, f, excluded = stack.pop()
        count += 1
        if budget is not None and count > budget:
            raise SizeLimitError("fingerprint-enumeration", f"budget {budget} exceeded")
        yield f, excluded
        free = full & ~excluded & -(1 << start)
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            if (excludes[v] & ~excluded).bit_count() >= threshold:
                stack.append((v + 1, f | low, excluded | excludes[v]))


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
    proof needs only regularity). The containers are those of the fingerprint
    fixed points at threshold epsilon*d, under `container_of`'s rule. More
    than `budget` fingerprints raise SizeLimitError; without a budget the walk
    is unbounded.
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
            low_degree=True,
            stats={"mode": "low-degree-flag", "note": "edgeless", "vacuous": False},
            locate=None,
        )
    params = ContainerParams(epsilon=epsilon, d=float(d))
    low_degree = d <= 2.0 / (epsilon * epsilon)
    if low_degree and not force:
        return ContainerCollection(
            containers=(),
            params=params,
            source="regular-graph",
            low_degree=True,
            stats={"mode": "low-degree-flag", "vacuous": False},
            locate=None,
        )

    size_bound = (1.0 / (2.0 - epsilon) + params.q) * g.n
    dedup: set[int] = set()
    walked = 0
    for f, nf in _fixed_points(g.adj_mask, params.epsilon * params.d, budget):
        walked += 1
        cont = f | _boundary_mask(g, f, nf, params)
        if cont.bit_count() > size_bound + 1e-9:
            raise RuntimeError(
                f"container of size {cont.bit_count()} violates the regular-graph bound "
                f"{size_bound:.3f}; this indicates a bug"
            )
        dedup.add(cont)
    containers = _sorted_sets(dedup)

    def locate(independent: VertexSet) -> VertexSet:
        return container_of(g, fingerprint(g, independent, params), params)

    return ContainerCollection(
        containers=containers,
        params=params,
        source="regular-graph",
        low_degree=low_degree,
        stats={
            "container_count": len(containers),
            "max_container_size": containers[-1].cardinality,
            "size_bound": size_bound,
            "forced": force and low_degree,
            "candidate_count": walked,
            "vacuous": (1 << g.n) - 1 in dedup,
        },
        locate=locate,
    )


def _sorted_sets(masks: Iterable[int]) -> tuple[VertexSet, ...]:
    """Vertex sets by size, then mask."""
    return tuple(VertexSet(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m)))


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
    `inside` can take. This one rule serves the fingerprint scan and the
    container expansion; for r=2 it is the set of neighbors of v outside
    `inside`."""
    outside = ~inside
    out = 0
    for idx in h.incidence[v]:
        rest = h.edge_masks[idx] & outside
        if rest.bit_count() == 1:
            out |= rest
    return out


def hypergraph_fingerprint(h: Hypergraph, independent: VertexSet, tau: int) -> VertexSet:
    """Single-pass scan in vertex-id order: a vertex of I joins F when it
    would newly exclude at least tau vertices."""
    if not h.is_independent(independent.mask):
        raise PreconditionError("input set is not independent in the hypergraph")
    f = excluded = 0
    for v in independent:
        new = _exclusions(h, v, f | (1 << v))
        if (new & ~excluded).bit_count() >= tau:
            f |= 1 << v
            excluded |= new
    return VertexSet(f)


def hypergraph_container(h: Hypergraph, fp: VertexSet, tau: int) -> VertexSet:
    """F plus every non-excluded vertex that would newly exclude fewer than
    tau vertices. Contains every independent set whose fingerprint is F."""
    f = fp.mask
    excluded = 0
    for v in fp:
        excluded |= _exclusions(h, v, f)
    joins = [_exclusions(h, v, f | (1 << v)) for v in range(h.n)]
    return VertexSet(_container_mask(joins, f, excluded, tau))


def _container_mask(excludes: Sequence[int], f: int, excluded: int, tau: int) -> int:
    """The engine's container rule: F plus every vertex v outside F and
    `excluded` whose `excludes[v]` (what v excludes on joining F) holds fewer
    than tau vertices not yet excluded."""
    out = f
    free = ((1 << len(excludes)) - 1) & ~(f | excluded)
    while free:
        low = free & -free
        free ^= low
        if (excludes[low.bit_length() - 1] & ~excluded).bit_count() < tau:
            out |= low
    return out


def _walked_containers(excludes: Sequence[int], tau: int, budget: int) -> tuple[int, set[int]]:
    """Number of fingerprints walked at threshold tau and the distinct
    container masks of those fingerprints."""
    walked = 0
    dedup: set[int] = set()
    for f, excluded in _fixed_points(excludes, tau, budget):
        walked += 1
        dedup.add(_container_mask(excludes, f, excluded, tau))
    return walked, dedup


def build_hypergraph_collection(
    h: Hypergraph,
    params: HypergraphContainerParams,
    *,
    candidate_budget: int = 20000,
    max_containers: int | None = None,
) -> ContainerCollection:
    """Container collection for an r-uniform hypergraph.

    The containers are those of the single-pass fingerprints, which one walk
    of the fixed points lists. The exclusion threshold tau starts at
    ~1/((r-1)p) and is raised until the walk fits the budget and, when
    requested, the deduped collection fits max_containers (larger tau means
    fewer, smaller fingerprints and larger containers; coverage is
    unaffected). Container sizes are measured and reported in the stats, not
    certified.

    What a vertex excludes on joining a fingerprint is its lone-vertex
    exclusion set: at r=2 its neighborhood, and at r>=3 nothing, since an
    edge through v has r-1 >= 2 other vertices. So at r>=3 no vertex joins
    the empty fingerprint, every `locate` image is V and the collection is
    {V}, which `stats["vacuous"]` reports. At r=2 a collection holds V only
    when it is {V}.
    """
    if h.r != params.r:
        raise ParameterError(f"params are for uniformity {params.r}, hypergraph has {h.r}")
    if not h.edges:
        raise ParameterError("hypergraph has no edges (zero edge density)")
    report = check_codegree_conditions(h, params)
    if not report.ok:
        raise CodegreeConditionError(report)

    excludes = [_exclusions(h, v, 1 << v) for v in range(h.n)]
    full = (1 << h.n) - 1
    tau = max(1, math.ceil(1.0 / ((h.r - 1) * params.p)))
    fallback = None  # last build whose containers were not all-of-V
    while True:
        try:
            count, dedup = _walked_containers(excludes, tau, candidate_budget)
        except SizeLimitError:
            tau += max(1, tau // 2)
            continue
        if full not in dedup:
            fallback = (tau, count, dedup)
        if max_containers is not None and len(dedup) > max_containers and count > 1:
            tau += max(1, tau // 2)
            continue
        break
    if full in dedup and fallback is not None:
        # raising the threshold degenerated the collection to the single
        # full-vertex-set container; prefer the last informative build even
        # if it overshoots the requested collection size
        tau, count, dedup = fallback
    containers = _sorted_sets(dedup)

    def locate(independent: VertexSet) -> VertexSet:
        # a fingerprint's vertices exclude exactly their lone exclusion sets
        # (F is independent at r=2 and empty at r>=3), as in the walk
        fp = hypergraph_fingerprint(h, independent, tau)
        excluded = 0
        for v in fp:
            excluded |= excludes[v]
        return VertexSet(_container_mask(excludes, fp.mask, excluded, tau))

    return ContainerCollection(
        containers=containers,
        params=params,
        source="hypergraph",
        low_degree=False,
        stats={
            "container_count": len(containers),
            "max_container_size": containers[-1].cardinality,
            "tau": tau,
            "candidate_count": count,
            "vacuous": full in dedup,
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
