"""Maximum (weighted) independent set.

The base solver is branch-and-bound on the max-degree vertex with a greedy
seed and a residual-weight prune; it can be confined to a vertex mask and
started from a given incumbent. The container wrapper takes the greedy set S
over V as its incumbent and runs the base solver inside a few containers of
the parent graph, carrying one incumbent across them: each search returns the
better of it and its container's optimum. That is exact, because the optimum
lies inside the container of its fingerprint, and the prune only cuts
branches that cannot beat or tie the incumbent.

Containers are priced by a greedy clique cover: an independent set takes at
most one vertex of each clique, so the sum of the cliques' heaviest weights
bounds every independent subset of a vertex set. The answer never ranks
below S, so the fingerprint walk is cut where it cannot reach a better set:
every container below a fingerprint F lies inside V minus F's exclusions,
and F's subtree is skipped when that set (at a leaf, F's own container) is
priced below w(S), or at w(S) without room for a tie that sorts before S.

The kept containers are searched in descending bound order, larger first on
equal bounds; the first always, from S, and the rest until the first bound
below the incumbent's weight. A container whose bound equals that weight can
only tie the incumbent B = b1 < b2 < ..., so it is searched only when a bit
test along B finds room in it for a tying set that sorts before B: a proper
prefix of B whose remaining vertices weigh 0, or a vertex between b(i-1) and
b(i) adjacent to none of b1..b(i-1), with b1..b(i-1) inside the container. A
container inside one already searched is skipped, as that search saw all of
its subsets. The answer is therefore the one every container's search would
give: the lexicographically smallest set of maximum weight.

That is `containers` mode, which always builds, forcing the regular scheme
below its degree floor. `auto` runs the base solver on V and says why in
`stats["path"]`: on regular and G(n, p) graphs up to n = 80, B&B inside
containers beat B&B on V only on d = n/2 at n <= 28, and lost more as n grew
(README.md has the table)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Graph, ParameterError, VertexSet
from .containers import build_almost_regular_collection, build_regular_collection


@dataclass
class MisResult:
    best: VertexSet
    size: int
    weight: int
    stats: dict = field(default_factory=dict)


def _greedy_seed(g: Graph, weights: list[int], alive: int) -> int:
    """Min-degree greedy independent set inside `alive`, as the initial lower
    bound."""
    chosen = 0
    while alive:
        best_v, best_key = -1, None
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (g.adj_mask[v] & alive).bit_count()
            key = (deg, -weights[v], v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        chosen |= 1 << best_v
        alive &= ~(g.adj_mask[best_v] | (1 << best_v))
    return chosen


def _clique_cover_bound(g: Graph, weights: list[int], mask: int) -> int:
    """Upper bound on the weight of an independent subset of `mask`: cover
    `mask` greedily by cliques, each grown from its lowest free vertex by its
    lowest common free neighbour, and add up each clique's heaviest weight.
    An independent set meets each clique at most once, so the bound holds for
    any non-negative weights; on an independent mask it is the mask's weight."""
    bound = 0
    while mask:
        low = mask & -mask
        mask ^= low
        v = low.bit_length() - 1
        heaviest = weights[v]
        common = g.adj_mask[v] & mask
        while common:
            low = common & -common
            mask ^= low
            u = low.bit_length() - 1
            if weights[u] > heaviest:
                heaviest = weights[u]
            common &= g.adj_mask[u]
        bound += heaviest
    return bound


def _may_hold_earlier_tie(
    g: Graph, weights: list[int], container: int, best: int, best_w: int
) -> bool:
    """Whether `container` may hold an independent set of the incumbent's
    weight that sorts before the incumbent `best` = b1 < b2 < ... < bk, of
    weight `best_w`.

    Such a set S either is a proper prefix b1..b(i-1) of `best` whose rest
    b(i)..bk weighs 0, or first differs from `best` at some i with b(i-1) <
    s(i) < b(i); either way b1..b(i-1) lies in the container. So for i = 1,
    2, ...: a zero-weight rest or a vertex of the container strictly between
    b(i-1) and b(i) that no b1..b(i-1) is adjacent to says yes, and b(i)
    outside the container says no. Past bk it is no: every other subset of
    the container that holds all of `best` extends it and sorts after it."""
    rest_w = best_w  # the weight of b(i)..bk
    passed = 0  # b1..b(i-1) and every vertex below them
    blocked = 0  # the neighbourhood of b1..b(i-1)
    while best:
        if rest_w == 0:
            return True
        low = best & -best
        best ^= low
        if container & (low - 1) & ~(passed | blocked):
            return True
        if not container & low:
            return False
        v = low.bit_length() - 1
        passed |= (low << 1) - 1
        blocked |= g.adj_mask[v]
        rest_w -= weights[v]
    return False


def _check_weights(g: Graph, weights: list[int] | None) -> list[int]:
    if weights is None:
        return [1] * g.n
    if len(weights) != g.n or any(w < 0 for w in weights):
        raise ParameterError("weights must be non-negative, one per vertex")
    return weights


def mis_base(
    g: Graph,
    weights: list[int] | None = None,
    *,
    within: int | None = None,
    incumbent: int | None = None,
) -> MisResult:
    """Exact maximum-weight independent set; unit weights by default. Ties
    resolve to the lexicographically smallest sorted vertex tuple.

    `within` is the vertex mask the search may use (all of V by default).
    `incumbent` is an independent set of g, anywhere in V, to start from
    instead of a greedy set inside `within`; the result is the best of it and
    the independent subsets of `within`, under the same tie rule."""
    weights = _check_weights(g, weights)
    if within is None:
        within = (1 << g.n) - 1
    elif within >> g.n:
        raise ParameterError("within must be a vertex mask of the graph")
    if incumbent is None:
        best_mask = _greedy_seed(g, weights, within)
    elif incumbent >> g.n or not g.is_independent(incumbent):
        raise ParameterError("incumbent must be an independent vertex mask of the graph")
    else:
        best_mask = incumbent
    best_w = sum(weights[v] for v in VertexSet(best_mask))
    nodes = 0

    def rec(alive: int, chosen: int, chosen_w: int):
        nonlocal best_mask, best_w, nodes
        nodes += 1
        rest_w = sum(weights[v] for v in VertexSet(alive))
        if chosen_w + rest_w < best_w:
            return
        if not alive:
            if chosen_w > best_w or (
                chosen_w == best_w and tuple(VertexSet(chosen)) < tuple(VertexSet(best_mask))
            ):
                best_mask, best_w = chosen, chosen_w
            return
        # branch on the max-degree alive vertex, lowest id on ties
        pivot, pivot_deg = -1, -1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (g.adj_mask[v] & alive).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        rec(alive & ~(g.adj_mask[pivot] | (1 << pivot)), chosen | (1 << pivot), chosen_w + weights[pivot])
        rec(alive & ~(1 << pivot), chosen, chosen_w)

    rec(within, 0, 0)
    best = VertexSet(best_mask)
    if not g.is_independent(best.mask):
        raise RuntimeError("solver returned a dependent set; this is a bug")
    return MisResult(best=best, size=best.cardinality, weight=best_w, stats={"nodes": nodes})


@dataclass
class MisConfig:
    mode: str = "auto"  # auto | base | containers
    epsilon: float = 0.25  # regular-build slack
    # unread, since containers mode always builds; the field stays only
    # because perfbench/workloads.py still passes force=True
    force: bool = False


def mis_containers(g: Graph, config: MisConfig | None = None, weights: list[int] | None = None) -> MisResult:
    config = config or MisConfig()
    weights = _check_weights(g, weights)
    if not 0 < config.epsilon < 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2), got {config.epsilon}")
    if config.mode not in ("auto", "base", "containers"):
        raise ParameterError(f"unknown mode {config.mode!r}")
    if config.mode != "containers":
        r = mis_base(g, weights)
        r.stats["path"] = "base" if config.mode == "base" else (
            "base (auto: B&B inside containers measured slower than on V)")
        return r
    if g.m == 0:
        # every positive weight, and each zero weight below the last of them,
        # which only sorts the set earlier
        top = g.n
        while top and not weights[top - 1]:
            top -= 1
        return MisResult(VertexSet((1 << top) - 1), top, sum(weights), {"path": "edgeless"})
    # every answer sorts at or before the greedy set S over V, so the walk
    # enters a fingerprint's subtree only when what it can reach (V minus
    # the fingerprint's exclusions, or at a leaf its container) is priced
    # above w(S), or at w(S) with room for a tie that sorts before S
    full = (1 << g.n) - 1
    seed = _greedy_seed(g, weights, full)
    seed_w = sum(weights[v] for v in VertexSet(seed))
    prices: dict[int, int] = {}  # vertex mask -> bound

    def price(mask: int) -> int:
        bound = prices.get(mask)
        if bound is None:
            bound = prices[mask] = _clique_cover_bound(g, weights, mask)
        return bound

    def keep(f: int, excluded: int, heavy: int) -> bool:
        # F's children are its heavy vertices above max F; a leaf's subtree
        # is F's own container
        reach = full & ~(excluded if heavy >> f.bit_length() else excluded | heavy)
        bound = price(reach)
        return bound > seed_w or (
            bound == seed_w and _may_hold_earlier_tie(g, weights, reach, seed, seed_w)
        )

    if g.is_regular():
        coll = build_regular_collection(g, config.epsilon, force=True, keep=keep)
    else:
        coll = build_almost_regular_collection(g, keep=keep)

    order = sorted((c.mask for c in coll.containers), key=lambda m: (-price(m), -m.bit_count(), m))
    # highest bound first, then larger, then by mask; the first container is
    # searched from S, and the incumbent only grows, so the first bound below
    # it ends the search; a container that can only tie it is searched only
    # for a set sorting first, and one inside a searched container not at all
    first, *rest = order
    r = mis_base(g, weights, within=first, incumbent=seed)
    best_mask, best_w = r.best.mask, r.weight
    nodes, searched, tie_skipped, subsumed = r.stats["nodes"], [first], 0, 0
    for container in rest:
        bound = prices[container]
        if bound < best_w:
            break
        if bound == best_w and not _may_hold_earlier_tie(g, weights, container, best_mask, best_w):
            tie_skipped += 1
            continue
        if any(not container & ~done for done in searched):
            subsumed += 1
            continue
        r = mis_base(g, weights, within=container, incumbent=best_mask)
        nodes += r.stats["nodes"]
        searched.append(container)
        best_mask, best_w = r.best.mask, r.weight
    best = VertexSet(best_mask)
    if not g.is_independent(best.mask):
        raise RuntimeError("container subproblem produced a dependent set; this is a bug")
    return MisResult(
        best=best,
        size=best.cardinality,
        weight=best_w,
        stats={
            "path": "containers",
            "containers": len(coll.containers),
            "cut": coll.stats.get("cut", 0),
            "searched": len(searched),
            "tie_skipped": tie_skipped,
            "subsumed": subsumed,
            "largest_subproblem": coll.stats["max_container_size"],
            "nodes": nodes,
        },
    )
