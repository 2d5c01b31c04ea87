"""Fingerprints and containers for independent sets.

Two constructions live here: the exact scheme for graphs (scan an independent
set in a fixed vertex order, keep vertices that contribute enough fresh
neighbors, expand the kept fingerprint into a container), and a pragmatic
engine for r-uniform hypergraphs built on the same idea, with exclusions
playing the role of neighborhoods: a vertex is excluded by a set F once some
edge has all its other vertices in F. The graph scheme is the engine's r=2
case, and every builder (regular, almost-regular, r>=3) runs on one list:
what each vertex excludes when it joins a fingerprint. In a graph that is
its neighborhood, its adjacency mask; a hypergraph's lists are read in one
pass over its edges, each 2-edge's ends excluding each other, and at r>=3 a
lone vertex excludes nothing, as an edge through it has r-1 >= 2 other
vertices. One container rule expands every fingerprint into its container:
F plus each vertex outside F and its exclusions that would newly exclude
fewer than tau vertices. The fingerprint scan is single pass, so the
fingerprints of the independent sets are exactly the fixed points fp(F) ==
F, and these are prefix-closed: one depth-first walker, `_fixed_points`, lists them for
every builder, pruning at the first vertex that brings too few new
exclusions (the algorithmic graph container lemma of Kleitman-Winston and
Sapozhenko). The walk carries each fingerprint's heavy set, the vertices
outside F and its exclusions that would newly exclude at least tau: the
children of F are its heavy vertices above max F, its container is every
vertex neither excluded nor heavy (the mask of the container rule), and a
child's heavy set is found by testing only its parent's heavy vertices, as
new-exclusion counts only fall while F grows. At r>=3 a lone vertex excludes
nothing, so the walk stops at the empty fingerprint and the engine's
collection is {V}. Coverage -- every independent set is inside the container
of its fingerprint -- holds by construction; container size bounds are
certified for regular graphs and measured/reported for the hypergraph
engine. The engine's only input is p, which sets its starting threshold;
co-degree conditions, which the container lemma needs only to bound
container sizes, are not checked. One driver, `_collection`, walks and
assembles every collection; every walk is budgeted (`CANDIDATE_BUDGET`
fingerprints per threshold), and past it the driver raises the threshold. A
graph is walked on its own adjacency masks. Every collection's `locate` is
one scan, `_locate`: the fingerprint scan of the set, then a lookup in the
walk's map from fingerprint to container. The per-set scans of both
schemes (one set's fingerprint, one fingerprint's container) are not in the
library: `tests/oracles.py` holds them, the regular scheme's being the r=2
case, as the references the walk and `locate` are checked against.

A builder's caller may pass `keep(F, excluded, heavy)` to cut the walk: a
fingerprint it rejects is skipped with its whole subtree. Exclusions only
grow down the tree, so every container below F lies inside V minus F's
exclusions, and a solver that can bound what that set holds (the MIS
wrapper, with its incumbent) lists only the containers it may need. Such a
collection no longer covers every independent set, so it has no `locate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VertexSet,
)

# fingerprints any walk lists at one threshold before the driver raises the
# threshold
CANDIDATE_BUDGET = 20000

# keep(F, excluded, heavy): whether the walk enters fingerprint F's subtree
Keep = Callable[[int, int, int], bool]


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

    @property
    def tau(self) -> int:
        """The fingerprint threshold: a vertex joins F when it brings at least
        epsilon*d new neighbors, i.e. at least tau, as counts are integers.
        epsilon*d is rounded to 9 decimals first, as 0.28*25 is
        7.000000000000001 in floats."""
        return math.ceil(round(self.epsilon * self.d, 9))


@dataclass
class ContainerCollection:
    """Deduplicated containers plus what produced them.

    `params` is the regular scheme's `ContainerParams`, and None for engine
    collections, whose p and threshold are in `stats["p"]` and
    `stats["tau"]`. `locate(I)` scans I for its fingerprint, then looks up
    the container the walk built for that fingerprint; the result is always
    a member of `containers`. `stats["vacuous"]` is true when V itself is a
    container, so the collection prunes nothing. A walk that a `keep`
    filter cut reports the number of subtrees it skipped in `stats["cut"]`
    and has no `locate`, as it no longer covers every independent set.
    """

    containers: tuple[VertexSet, ...]
    params: ContainerParams | None
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
    holes: list[int] = []  # the complement of each kept mask
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        for hole in holes:
            if not m & hole:
                break
        else:
            holes.append(~m)
    return [~hole for hole in holes]


def _heavy(excludes: Sequence[int], candidates: int, excluded: int, threshold: float) -> int:
    """The vertices v of `candidates` whose `excludes[v]` holds at least
    `threshold` vertices not yet excluded."""
    fresh = ~excluded
    heavy = 0
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        if (excludes[low.bit_length() - 1] & fresh).bit_count() >= threshold:
            heavy |= low
    return heavy


def _fixed_points(
    excludes: Sequence[int], threshold: float, keep: Keep | None = None
) -> Iterator[tuple[int, int, int]]:
    """Depth-first walk of the single-pass fingerprint fixed points, each
    yielded once as (F, vertices F excludes, heavy set of F).

    `excludes[v]` is what v excludes when it joins a set that does not
    exclude it (its neighborhood, in a graph). The heavy set H(F) holds the
    vertices outside F and its exclusions that would newly exclude at least
    `threshold` vertices. F is a fixed point, fp(F) == F, exactly when each
    of its vertices, in id order, was heavy for the vertices before it; so
    fixed points are prefix-closed, and the children of F are F + v for v in
    H(F) above max F. New-exclusion counts only fall as the exclusions grow,
    so a child's heavy set lies inside H(F) minus the child's new exclusions
    and its new vertex, and only those vertices are tested again. The
    container of F is what is neither excluded nor heavy, `full & ~(excluded
    | H(F))`: F plus the vertices the fingerprint scan would have passed
    over, which is the one container rule. The fixed points are exactly
    the fingerprints of the independent sets, each with at most n/threshold
    vertices. More than `CANDIDATE_BUDGET` of them raise SizeLimitError.

    `keep(F, excluded, heavy)`, when given, is asked about every fixed point
    but the root; where it is false, F and its whole subtree are skipped.
    Exclusions only grow down the tree, so every container below F lies
    inside V minus F's exclusions, and a caller can cut by what that set or,
    at a leaf (no heavy vertex above max F), F's container can hold."""
    full = (1 << len(excludes)) - 1
    budget = CANDIDATE_BUDGET
    count = 0
    stack = [(0, 0, 0, _heavy(excludes, full, 0, threshold))]
    while stack:
        start, f, excluded, heavy = stack.pop()
        count += 1
        if count > budget:
            raise SizeLimitError("fingerprint-enumeration", f"budget {budget} exceeded")
        yield f, excluded, heavy
        children = heavy & -(1 << start)
        while children:
            low = children & -children
            children ^= low
            v = low.bit_length() - 1
            grown = excluded | excludes[v]
            child_heavy = _heavy(excludes, heavy & ~(grown | low), grown, threshold)
            if keep is None or keep(f | low, grown, child_heavy):
                stack.append((v + 1, f | low, grown, child_heavy))


def build_regular_collection(
    g: Graph,
    epsilon: float,
    *,
    force: bool = False,
    keep: Keep | None = None,
) -> ContainerCollection:
    """Container collection for a d-regular graph.

    When d <= 2/epsilon^2 the construction gives no useful size bound; by
    default the result is flagged low-degree with no containers, which tells
    a caller to use something else. `force=True` runs the construction
    anyway (coverage still holds, and so does the size bound, whose proof
    needs only regularity, though it may reach n); an edgeless graph is
    always flagged. The containers are those of the fingerprint fixed points
    at threshold tau = ceil(epsilon*d), under the one container rule, and
    `locate` is the shared scan and lookup `_locate`: this is the engine's
    r=2 walk on g's adjacency masks, started at the scheme's tau.

    A walk past `CANDIDATE_BUDGET` fingerprints makes the driver raise tau,
    as it does for the engine. `stats["tau"]` is the walked threshold and
    `locate` follows it; `params` stays the requested scheme. A raised tau
    is the scheme at epsilon' = tau/d, so the size check and
    `stats["size_bound"]` use (1/(2 - epsilon') + 1/tau)*n there.
    `stats["certified"]` is whether that bound is below n: at or above it
    (a raised tau on a low-degree graph, such as tau = 2 at d = 3) the size
    check cannot fail, and the bound certifies nothing.

    `keep` cuts the walk as in `_fixed_points`; see `_collection`.
    """
    if g.n == 0:
        raise ParameterError("empty graph")
    if not g.is_regular():
        raise ParameterError(
            "graph is not regular; use the almost-regular (hypergraph engine) builder"
        )
    if not 0 < epsilon < 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2), got {epsilon}")
    d = g.degree(0)
    params = ContainerParams(epsilon=epsilon, d=float(d)) if d else None
    low_degree = d <= 2.0 / (epsilon * epsilon)
    if d == 0 or (low_degree and not force):
        note = {} if d else {"note": "edgeless"}
        return ContainerCollection(
            containers=(),
            params=params,
            source="regular-graph",
            low_degree=True,
            stats={"mode": "low-degree-flag", **note, "vacuous": False},
            locate=None,
        )

    size_bound = (1.0 / (2.0 - epsilon) + params.q) * g.n
    coll = _collection(
        g, g.adj_mask, params.tau, max_containers=None, source="regular-graph",
        stats={"size_bound": size_bound, "forced": force and low_degree}, keep=keep,
    )
    tau = coll.stats["tau"]
    if tau != params.tau:
        # raised past the budget: the scheme at epsilon' = tau/d, capped at 1,
        # past which the bound exceeds n (and at 2, reachable at d = 1, has a pole)
        raised = min(tau / d, 1.0)
        size_bound = coll.stats["size_bound"] = (1.0 / (2.0 - raised) + 1.0 / tau) * g.n
    coll.stats["certified"] = size_bound < g.n
    largest = coll.stats["max_container_size"]
    if largest > size_bound + 1e-9:
        raise RuntimeError(
            f"container of size {largest} violates the regular-graph bound "
            f"{size_bound:.3f}; this indicates a bug"
        )
    return replace(coll, params=params, low_degree=low_degree)


# --- r-uniform hypergraph engine ------------------------------------------

def _locate(
    structure: Graph | Hypergraph, excludes: Sequence[int], tau: int, walked: dict[int, int],
    independent: VertexSet,
) -> VertexSet:
    """The container of an independent set's fingerprint, in one scan: a
    vertex of I, in id order, joins F when `excludes[v]` brings at least tau
    new exclusions, and F's container is looked up in `walked`. `excludes`
    holds the lone exclusion sets the walk uses, which are exactly what a
    fingerprint vertex excludes (F is independent at r=2 and empty at r>=3),
    so F is a fixed point the walk listed. This is the library's only
    fingerprint scan of a given set, for the regular scheme and the engine
    alike; the per-set references it is tested against are in
    `tests/oracles.py`."""
    mask = independent.mask
    if not structure.is_independent(mask):
        raise PreconditionError("input set is not independent")
    f = excluded = 0
    while mask:
        low = mask & -mask
        mask ^= low
        joined = excludes[low.bit_length() - 1]
        if (joined & ~excluded).bit_count() >= tau:
            f |= low
            excluded |= joined
    return VertexSet(walked[f])


def _walked_containers(
    excludes: Sequence[int], tau: int, keep: Keep | None = None, limit: int | None = None
) -> tuple[dict[int, int] | None, int]:
    """The map from each fingerprint walked at threshold tau to its
    container mask, and the number of subtrees `keep` cut. With `limit`, the
    walk stops, and the map is None, as soon as it holds more than `limit`
    distinct containers over more than one fingerprint."""
    full = (1 << len(excludes)) - 1
    walked: dict[int, int] = {}
    distinct = set()
    cut: list[int] = []  # the fingerprints `keep` rejected, each with its subtree
    # keep, recording each rejection (append returns None, which rejects)
    counted = keep and (lambda f, excluded, heavy: keep(f, excluded, heavy) or cut.append(f))
    for f, excluded, heavy in _fixed_points(excludes, tau, counted):
        container = walked[f] = full & ~(excluded | heavy)
        distinct.add(container)
        if limit is not None and len(distinct) > limit and len(walked) > 1:
            return None, len(cut)
    return walked, len(cut)


def _collection(
    structure: Graph | Hypergraph,
    excludes: Sequence[int],
    tau: int,
    max_containers: int | None,
    source: str,
    stats: dict,
    keep: Keep | None,
) -> ContainerCollection:
    """Every builder's collection: walk the fixed points at threshold tau,
    raised by half while the walk overflows `CANDIDATE_BUDGET` or yields
    more than `max_containers` containers (larger tau means fewer, smaller
    fingerprints and larger containers; coverage is unaffected). A walk is
    abandoned as soon as it passes `max_containers`. When raising tau
    degenerates the collection to {V}, the last abandoned threshold whose
    whole walk fits the budget is walked again and kept instead. The stats
    add the caller's `stats` and the final tau, which `locate` follows.
    With `keep`, `stats["cut"]` counts the subtrees the final walk skipped,
    when there are any, and the collection has no `locate`."""
    full = (1 << len(excludes)) - 1
    abandoned = []  # thresholds whose walk passed max_containers
    while True:
        try:
            walked, cut = _walked_containers(excludes, tau, keep, max_containers)
        except SizeLimitError:
            pass
        else:
            if walked is not None:
                break
            abandoned.append(tau)
        tau += max(1, tau // 2)
    if full in walked.values():
        # raising the threshold degenerated the collection to the single
        # full-vertex-set container; prefer the last informative build that
        # fits the budget, even if it overshoots the requested collection size
        for informative in reversed(abandoned):
            try:
                walked, cut = _walked_containers(excludes, informative, keep)
            except SizeLimitError:
                continue
            tau = informative
            break
    dedup = set(walked.values())
    containers = tuple(VertexSet(m) for m in sorted(dedup, key=lambda m: (m.bit_count(), m)))
    return ContainerCollection(
        containers=containers,
        params=None,
        source=source,
        stats={
            "container_count": len(containers),
            "max_container_size": containers[-1].cardinality,
            **stats,
            "tau": tau,
            "candidate_count": len(walked),
            "vacuous": full in dedup,
            **({"cut": cut} if cut else {}),
        },
        locate=None if cut else partial(_locate, structure, excludes, tau, walked),
    )


def build_hypergraph_collection(
    structure: Graph | Hypergraph,
    p: float,
    *,
    max_containers: int | None = None,
    keep: Keep | None = None,
) -> ContainerCollection:
    """Container collection for an r-uniform hypergraph, r read from it; a
    `Graph` is the r=2 case, walked on its own adjacency masks.

    p in (0, 1] is the engine's only input. The containers are those of the
    single-pass fingerprints, which one walk of the fixed points lists. The
    exclusion threshold tau starts at ~1/((r-1)p) and is raised until the
    walk fits `CANDIDATE_BUDGET` and, when requested, the deduped collection
    fits max_containers. Container sizes are measured and reported in the
    stats, not certified, so no co-degree condition is checked; p and the
    final tau are in the stats.

    What a vertex excludes on joining a fingerprint is its lone-vertex
    exclusion set, read in one pass over the edges: at r=2 the other end of
    each edge through it (its neighborhood; a repeated edge adds nothing
    new), and at r>=3 nothing, since an edge through v has r-1 >= 2 other
    vertices. So at r>=3 no vertex joins the empty fingerprint, every
    `locate` image is V and the collection is {V}, which `stats["vacuous"]`
    reports. At r=2 a collection holds V only when it is {V}. `keep` cuts
    the walk as in `_fixed_points`; see `_collection`.
    """
    if not 0 < p <= 1:
        raise ParameterError(f"p must be in (0, 1], got {p}")
    graph = isinstance(structure, Graph)
    r = 2 if graph else structure.r
    if r < 2:
        raise ParameterError("uniformity must be at least 2")
    if not structure.edges:
        raise ParameterError("hypergraph has no edges (zero edge density)")
    if graph:
        excludes = structure.adj_mask
    else:
        # each end of a 2-edge excludes the other; at r>=3 nothing is excluded
        excludes = [0] * structure.n
        if r == 2:
            for mask in structure.edge_masks:
                low = mask & -mask
                excludes[low.bit_length() - 1] |= mask ^ low
                excludes[mask.bit_length() - 1] |= low
    # rounded first, as 1/(4/196) is 49.00000000000001 in floats
    tau = max(1, math.ceil(round(1.0 / ((r - 1) * p), 9)))
    return _collection(structure, excludes, tau, max_containers, "hypergraph", {"p": p}, keep)


def build_almost_regular_collection(
    g: Graph, *, max_containers: int | None = None, keep: Keep | None = None
) -> ContainerCollection:
    """Graph containers via the hypergraph engine at r=2, on g itself.

    p = 1/(epsilon*avg_degree) at epsilon = 1/4 mirrors the regular scheme,
    where a fingerprint vertex must bring epsilon*d new exclusions: any
    larger threshold would exceed vertex degrees and every container would
    degenerate to the full vertex set. p reads only the average degree, so
    any degree ratio is accepted.
    """
    if g.m == 0:
        raise ParameterError("graph has no edges (zero edge density)")
    p = min(1.0, 1.0 / (0.25 * g.average_degree))
    coll = build_hypergraph_collection(g, p, max_containers=max_containers, keep=keep)
    return replace(coll, source="almost-regular-graph")


def collection_report(coll: ContainerCollection, g: Graph) -> dict:
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
    if coll.params is not None:
        report["params"] = {"epsilon": coll.params.epsilon, "d": coll.params.d, "q": coll.params.q}
    sparsities: dict[int, int] = {}
    for c in coll.containers:
        s = g.induced_edge_count(c.mask)
        sparsities[s] = sparsities.get(s, 0) + 1
    report["sparsity_histogram"] = {str(k): v for k, v in sorted(sparsities.items())}
    return report
