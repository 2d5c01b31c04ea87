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
F, and these are prefix-closed: one depth-first walk, `_walked_containers`,
lists them for every builder, each fingerprint's lowest child first,
pruning at the first vertex that brings too few new exclusions (the
algorithmic container lemma of Kleitman-Winston and Sapozhenko), and maps
each to its container. The walk carries each fingerprint's heavy set, the
vertices outside F and its exclusions that would newly exclude at least
tau: the children of F are its heavy vertices above max F, and its
container is every vertex neither excluded nor heavy (the mask of the
container rule). At r>=3 a lone vertex excludes nothing,
so the walk stops at the empty fingerprint and the engine's collection is
{V}. Coverage -- every independent set is inside the container of its
fingerprint -- holds by construction; container size bounds are certified
for regular graphs and measured/reported for the hypergraph engine. The
engine's only input is p, which sets its starting threshold; co-degree
conditions, which the container lemma needs only to bound container sizes,
are not checked. One driver, `_collection`, walks and assembles every
collection; every walk is budgeted (`CANDIDATE_BUDGET` fingerprints per
threshold), and past it the driver raises the threshold of an uncut walk,
walking no threshold twice, and refuses a cut one. A graph is walked on its
own adjacency masks. Every collection's `locate` is one scan, `_locate`:
the fingerprint scan of the set, then a lookup in the walk's map from
fingerprint to container. The per-set scans of both schemes (one set's
fingerprint, one fingerprint's container) are not in the library:
`tests/oracles.py` holds them, the regular scheme's being the r=2 case, as
the references the walk and `locate` are checked against.

`build_hypergraph_collection`'s caller may pass `keep(F, reach,
container)`, which cuts the walk; `_walked_containers` says how. It is
asked only about what a set whose fingerprint starts with F can hold: F,
and no vertex that F excludes or that the scan would have taken before max
F. A cut walk is walked once, at its starting threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from .core import (
    Graph,
    Hypergraph,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    VertexSet,
)

# fingerprints any walk lists at one threshold: past it the driver raises an
# uncut walk's threshold, and a cut walk's SizeLimitError propagates
CANDIDATE_BUDGET = 20000

# keep(F, reach, container), as `_walked_containers` asks it
Keep = Callable[[int, int, bool], bool]


def _threshold(x: float) -> int:
    """ceil(x), at least 1: x is rounded to 9 decimals first, as 0.28*25 is
    7.000000000000001 and 1/(4/196) is 49.00000000000001 in floats, and an x
    that rounds to 0 would let a vertex that excludes nothing new join F."""
    return max(1, math.ceil(round(x, 9)))


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
    def low_degree(self) -> bool:
        """Whether d <= 2/epsilon^2, where the scheme bounds no container
        below n. Tested as d*epsilon^2 <= 2: epsilon^2 is 0.0 in floats
        below epsilon = 1.57e-162, which sets the flag, where 2/epsilon^2
        would divide by zero."""
        return self.d * (self.epsilon * self.epsilon) <= 2.0

    @property
    def tau(self) -> int:
        """The fingerprint threshold: a vertex joins F when it brings at least
        epsilon*d new neighbors, i.e. at least tau, as counts are integers;
        `_threshold` rounds it, as it does the engine's."""
        return _threshold(self.epsilon * self.d)


@dataclass
class ContainerCollection:
    """Deduplicated containers plus what produced them.

    `params` is the regular scheme's `ContainerParams`, and None for engine
    collections, whose p and threshold are in `stats["p"]` and
    `stats["tau"]`. `locate(I)` scans I for its fingerprint, then looks up
    the container the walk built for that fingerprint; the result is always
    a member of `containers`. `stats["vacuous"]` is true when V itself is a
    container, so the collection prunes nothing. A walk that a `keep`
    filter cut reports the number of reach asks it refused, each skipping a
    subtree, in `stats["cut"]` and has no `locate`, as it no longer covers
    every independent set.
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


def build_regular_collection(
    g: Graph,
    epsilon: float,
    *,
    force: bool = False,
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
    if d and math.isinf(params.q * g.n):
        # q = 1/(epsilon*d) overflows below epsilon*d of about 5.6e-309, and
        # the size bound q*n a little above it; a report would print either
        # as Infinity
        raise ParameterError(f"epsilon {epsilon} is too small: its size bound overflows")
    if d == 0 or (params.low_degree and not force):
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
        stats={"size_bound": size_bound, "forced": force and params.low_degree},
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
    return replace(coll, params=params, low_degree=params.low_degree)


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
    `tests/oracles.py`. A set with a vertex beyond the structure is refused
    with ParameterError, a set that is not independent with
    PreconditionError."""
    mask = independent.mask
    if mask >> structure.n:
        raise ParameterError("input set must be a vertex mask of the structure")
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
    excludes: Sequence[int], tau: float, keep: Keep | None = None, limit: int | None = None
) -> tuple[dict[int, int] | None, int]:
    """Depth-first walk of the single-pass fingerprint fixed points at
    threshold tau: the map from each fingerprint walked to its container
    mask, and the number of reach asks `keep` refused, each a subtree cut.

    `excludes[v]` is what v excludes when it joins a set that does not
    exclude it (its neighborhood, in a graph). The heavy set H(F) holds the
    vertices outside F and its exclusions that would newly exclude at least
    tau vertices. F is a fixed point, fp(F) == F, exactly when each of its
    vertices, in id order, was heavy for the vertices before it; so fixed
    points are prefix-closed, and the children of F are F + v for v in H(F)
    above max F. New-exclusion counts only fall as the exclusions grow, so a
    child's heavy set lies inside H(F) minus the child's new exclusions and
    its new vertex, and only those vertices are tested again. The container
    of F is what is neither excluded nor heavy, `full & ~(excluded | H(F))`:
    F plus the vertices the fingerprint scan would have passed over, which
    is the one container rule. The fixed points are exactly the fingerprints
    of the independent sets, each with at most n/tau vertices. More than
    `CANDIDATE_BUDGET` of them raise SizeLimitError. With `limit`, the walk
    stops, and the map is None, as soon as it holds more than `limit`
    distinct containers over more than one fingerprint.

    `keep(F, reach, container)`, when given, cuts the walk. The walk asks
    it about F, and computes F's heavy set, only when it reaches F: when F
    pops from the stack, not when F's parent does. It asks only about the
    vertices that a set whose fingerprint starts with F can hold. The scan
    is deterministic, so such a set holds F and none of F's exclusions. It
    also holds no vertex of S(F): the vertices u below max F, outside F and
    its exclusions, that the scan would have taken on reaching u, as they
    newly exclude at least tau vertices beyond the exclusions of F's
    vertices below u. Counts only fall as exclusions grow, so S(F + v) is
    S(F) plus H(F)'s vertices below v, less the new exclusions, and the
    walk carries it on its stack. `keep` is first asked about the reach, V
    minus F's exclusions and S(F), which holds every independent set of
    F's subtree, with `container` false, before F's heavy set is computed;
    where it is false, F and its whole subtree are skipped, which counts as
    one cut. The root is not asked this. Each fixed point walked, the root
    included, is then asked once about its own container minus S(F), which
    holds every set whose fingerprint is F, with `container` true, once
    every fixed point below it has been walked: a leaf (no heavy vertex
    above max F) right after its heavy set. That answer is ignored, and the
    map keeps the whole containers. Every walk reaches F's children lowest
    vertex first, each once the subtree of the one before is done. So a
    solver that can bound what a set holds (the MIS wrapper, with its
    incumbent) prices each child against what its lower siblings' searches
    found, and is handed each container, to search, as soon as the walk is
    done with it. A cut walk no longer covers every independent set, so its
    collection has no `locate`."""
    full = (1 << len(excludes)) - 1
    walked: dict[int, int] = {}
    distinct = set()
    cut = 0
    # (F, F's exclusions, the vertices F's heavy set lies in, a set holding
    # S(F) and lying in S(F) plus F's exclusions): F is asked about, and its
    # heavy set computed, only when it pops. (F, F's container minus S(F),
    # None, 0) pops once F's subtree is done
    stack = [(0, 0, full, 0)]
    while stack:
        f, excluded, candidates, passed = stack.pop()
        if candidates is None:
            keep(f, excluded, True)
            continue
        if keep is not None and f and not keep(f, full & ~(excluded | passed), False):
            cut += 1
            continue
        heavy = _heavy(excludes, candidates, excluded, tau)
        children = heavy & -(1 << f.bit_length())
        container = full & ~(excluded | heavy)
        if len(walked) >= CANDIDATE_BUDGET:
            raise SizeLimitError("fingerprint-enumeration", f"budget {CANDIDATE_BUDGET} exceeded")
        walked[f] = container
        distinct.add(container)
        if limit is not None and len(distinct) > limit and len(walked) > 1:
            return None, cut
        if keep is not None:
            # pushed under F's children, so it pops after their subtrees
            stack.append((f, container & ~passed, None, 0))
        # pushed highest first, so the lowest child pops first
        while children:
            v = children.bit_length() - 1
            low = 1 << v
            children ^= low
            grown = excluded | excludes[v]
            stack.append((f | low, grown, heavy & ~(grown | low), passed | (heavy & (low - 1))))
    return walked, cut


def _collection(
    structure: Graph | Hypergraph,
    excludes: Sequence[int],
    tau: int,
    max_containers: int | None,
    source: str,
    stats: dict,
    keep: Keep | None = None,
) -> ContainerCollection:
    """Every builder's collection. A walk cut by `keep` is walked once, at
    tau: past `CANDIDATE_BUDGET` its SizeLimitError propagates, as a higher
    threshold would hand the cutting solver larger containers, and
    `stats["cut"]` counts the reach asks `keep` refused, when there are
    any, and only then does the collection lack `locate`. An uncut walk has
    its threshold raised by half while it overflows `CANDIDATE_BUDGET` or
    yields more than `max_containers` containers (larger tau means fewer,
    smaller fingerprints and larger containers; coverage is unaffected),
    and stops as soon as it passes `max_containers`. The cap holds at every
    threshold whose raise is at most `top`, the largest exclusion set: past
    `top` no vertex is heavy for the empty fingerprint and the collection is
    {V} (at r>=3 `top` is 0). So the last informative threshold is walked
    whole, with no cap, and kept if it fits the budget, and no threshold is
    walked twice. No lower threshold is tried: its fixed points are a
    superset, so its walk overflows too. The stats add the caller's `stats`
    and the final tau, which `locate` follows."""
    full = (1 << len(excludes)) - 1
    if keep is not None:
        walked, cut = _walked_containers(excludes, tau, keep)
    else:
        top = max(map(int.bit_count, excludes))
        while True:
            raised = tau + max(1, tau // 2)
            limit = max_containers if raised <= top else None
            try:
                walked, cut = _walked_containers(excludes, tau, None, limit)
            except SizeLimitError:
                walked = None
            if walked is not None:
                break
            tau = raised
    dedup = set(walked.values())
    containers = tuple(VertexSet(m) for m in sorted(dedup, key=lambda m: (m.bit_count(), m)))
    return ContainerCollection(
        containers=containers,
        params=None,
        source=source,
        stats={
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
    fits max_containers, save the last informative tau, which is walked
    whole; no tau is walked twice (see `_collection`). Container sizes are
    measured and reported in the stats, not certified, so no co-degree
    condition is checked; p and the final tau are in the stats.

    What a vertex excludes on joining a fingerprint is its lone-vertex
    exclusion set, read in one pass over the edges: at r=2 the other end of
    each edge through it (its neighborhood; a repeated edge adds nothing
    new), and at r>=3 nothing, since an edge through v has r-1 >= 2 other
    vertices. So at r>=3 no vertex joins the empty fingerprint, every
    `locate` image is V and the collection is {V}, which `stats["vacuous"]`
    reports. At r=2 a collection holds V only when it is {V}. `keep` cuts
    the walk as `_walked_containers` says, and then the walk keeps its
    starting tau and refuses past `CANDIDATE_BUDGET` (see `_collection`),
    so it takes no `max_containers`.
    """
    if not 0 < p <= 1:
        raise ParameterError(f"p must be in (0, 1], got {p}")
    if keep is not None and max_containers is not None:
        raise ParameterError("a walk cut by keep takes no max_containers")
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
    tau = _threshold(1.0 / ((r - 1) * p))
    return _collection(structure, excludes, tau, max_containers, "hypergraph", {"p": p}, keep)


def build_almost_regular_collection(
    g: Graph, *, max_containers: int | None = None
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
    coll = build_hypergraph_collection(g, p, max_containers=max_containers)
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
