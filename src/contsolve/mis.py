"""Maximum (weighted) independent set.

The base solver is branch-and-bound on the max-degree vertex with a greedy
seed and a residual-weight prune; it can be confined to a vertex mask and
started from a given incumbent. The container wrapper takes the greedy set S
over V as its incumbent and runs the base solver inside a few containers of
the parent graph, carrying one incumbent across them: each search returns the
better of it and its container's optimum. That is exact, because the optimum
lies inside the container of its fingerprint, and the prune only cuts
branches that cannot beat or tie the incumbent.

Vertex sets are priced by greedy clique covers: an independent set takes at
most one vertex of each clique, so the sum of the cliques' heaviest weights
bounds every independent subset of a vertex set. The incumbent starts at S
and only improves, and the answer never ranks below it, so a vertex set
needs a search only if it may hold a set that beats the incumbent, or ties
it and sorts first. A set priced below the incumbent's weight holds
neither. One priced at that weight can only tie the incumbent B = b1 < b2 <
..., and is kept only when the tie test finds room in it for a tying set
that sorts before B: a proper prefix of B whose remaining vertices weigh 0,
or a vertex between b(i-1) and b(i) adjacent to none of b1..b(i-1), with
b1..b(i-1) inside the set. The test is built once per incumbent, as one gap
mask and one bit of B per step, so an ask is at most two ANDs per vertex of
B.

That question is the `keep` the fingerprint walk asks of each fingerprint
as it reaches it, a fingerprint's children lowest vertex first, each once
the subtree of the one before is done (`containers._walked_containers`
says when). A set whose size times the heaviest weight is below the
incumbent's weight is answered no before it is priced, as its price is at
most its weight. Otherwise it is priced by one cover, each clique grown
from the lowest free vertex by the lowest common free neighbour. A
container that this cover does not price out, about to be searched, is
priced again by the mirrored cover (highest free vertex, highest common
free neighbour): a search costs tens of covers, and neither cover is
always the tighter. As the first cover did not price it out, the mirrored
one prices it out exactly when the lower of the two would, so only the
first cover is memoized. Pricing every ask by both took about as many
nodes and no less time. A container that passes when the walk is done
with it is searched then, unless a container already searched holds it,
as that search saw all of its subsets; so every later price, a higher
sibling's included, meets the raised incumbent, and nothing is searched
after the walk. The one exception is a walk that searched nothing,
because S outweighs every container, or ties it with no room for an
earlier tie: then any search returns S, and the smallest kept container,
the cheapest, is searched anyway, so every answer of this path comes out
of a search of the base solver, whose own checks then run (perfbench's
MIS check relies on it). The answer is the one every container's search
would give: the lexicographically smallest set of maximum weight.

That is `containers` mode, which always builds, through the hypergraph
engine on g at p = 1/(epsilon * average degree): its threshold is tau =
ceil(epsilon * average degree), the regular scheme's on a regular graph, at
any degree. `auto` runs the base solver on V and says why in
`stats["path"]`: on regular and G(n, p) graphs up to n = 80, B&B inside
containers beat B&B on V only on d = n/2 at n <= 28, and lost more as n grew
(README.md has the table)."""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .core import Graph, ParameterError, SizeLimitError, VertexSet
from .containers import build_hypergraph_collection


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


def _clique_cover_bound(g: Graph, weights: list[int], mask: int, *, highest: bool = False) -> int:
    """Upper bound on the weight of an independent subset of `mask`: cover
    `mask` greedily by cliques, each grown from its lowest free vertex by its
    lowest common free neighbour (with `highest`, the mirrored cover: from
    the highest free vertex by the highest common free neighbour), and add up
    each clique's heaviest weight. An independent set meets each clique at
    most once, so the bound holds for any non-negative weights; on an
    independent mask it is the mask's weight."""
    adj = g.adj_mask
    bound = 0
    while mask:
        low = 1 << (mask.bit_length() - 1) if highest else mask & -mask
        mask ^= low
        v = low.bit_length() - 1
        heaviest = weights[v]
        common = adj[v] & mask
        while common:
            low = 1 << (common.bit_length() - 1) if highest else common & -common
            mask ^= low
            u = low.bit_length() - 1
            if weights[u] > heaviest:
                heaviest = weights[u]
            common &= adj[u]
        bound += heaviest
    return bound


def _earlier_tie_test(g: Graph, weights: list[int], best: int, best_w: int) -> Callable[[int], bool]:
    """The test of whether a vertex set may hold an independent set of the
    incumbent's weight that sorts before the incumbent `best` = b1 < b2 <
    ... < bk, of weight `best_w`, built once per incumbent.

    Such a set S either is a proper prefix b1..b(i-1) of `best` whose rest
    b(i)..bk weighs 0, or first differs from `best` at some i with b(i-1) <
    s(i) < b(i); either way b1..b(i-1) lies in the set. So for i = 1, 2,
    ...: a zero-weight rest, or a vertex of the set strictly between b(i-1)
    and b(i) that no b1..b(i-1) is adjacent to (step i's gap mask), says
    yes, and b(i) outside the set says no. Past bk it is no: every other
    subset that holds all of `best` extends it and sorts after it. The rest
    weighs 0 from some step on, or never, so the steps stop there, and a
    set that passes them all is answered by whether they stopped at a
    zero-weight rest."""
    steps = []  # (step i's gap mask, b(i))
    rest_w = best_w  # the weight of b(i)..bk
    passed = 0  # b1..b(i-1) and every vertex below them
    blocked = 0  # the neighbourhood of b1..b(i-1)
    while best and rest_w:
        low = best & -best
        best ^= low
        steps.append(((low - 1) & ~(passed | blocked), low))
        v = low.bit_length() - 1
        passed |= (low << 1) - 1
        blocked |= g.adj_mask[v]
        rest_w -= weights[v]
    zero_rest = bool(best)  # stopped before bk, at a rest of weight 0

    def may_hold_earlier_tie(mask: int) -> bool:
        for gap, bit in steps:
            if mask & gap:
                return True
            if not mask & bit:
                return False
        return zero_rest

    return may_hold_earlier_tie


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

    try:
        rec(within, 0, 0)
    except RecursionError:
        # one frame per branch: a search deeper than the interpreter's stack
        raise SizeLimitError(
            "mis-branch-and-bound", f"recursion deeper than the limit {sys.getrecursionlimit()}"
        ) from None
    best = VertexSet(best_mask)
    if not g.is_independent(best.mask):
        raise RuntimeError("solver returned a dependent set; this is a bug")
    return MisResult(best=best, size=best.cardinality, weight=best_w, stats={"nodes": nodes})


@dataclass
class MisConfig:
    mode: str = "auto"  # auto | base | containers
    # fingerprint slack, read in containers mode on every graph: the walk's
    # threshold is tau = ceil(epsilon * average degree)
    epsilon: float = 0.25
    # unread, since containers mode always builds; the field stays only
    # because perfbench/workloads.py still passes force=True
    force: bool = False


def mis_containers(g: Graph, config: MisConfig | None = None, weights: list[int] | None = None) -> MisResult:
    """Exact maximum-weight independent set, with `mis_base`'s tie rule;
    unit weights by default. `containers` mode searches inside the
    containers of a cut fingerprint walk (see the module docstring); `auto`
    and `base` run `mis_base` on V.

    In `containers` mode the stats count: `walked`, the fingerprints the
    walk listed; `containers`, the distinct containers it kept; `cut`, the
    subtrees it skipped, a leaf whose own container was priced out
    included; `searched`, the container searches, the one after a walk that
    searched nothing included; and `nodes`, the B&B nodes of all of them.
    `tau` is the walked threshold, and `vacuous` whether V itself is a
    container."""
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
    # the incumbent starts at the greedy set S over V and only improves
    full = (1 << g.n) - 1
    best_mask = _greedy_seed(g, weights, full)
    best_w = sum(weights[v] for v in VertexSet(best_mask))
    may_tie = _earlier_tie_test(g, weights, best_mask, best_w)
    heaviest = max(weights)
    covers: dict[int, int] = {}  # vertex mask -> its lowest-first cover
    searched: list[int] = []  # the containers searched, in order
    nodes = 0

    def cover(mask: int) -> int:
        bound = covers.get(mask)
        if bound is None:
            bound = covers[mask] = _clique_cover_bound(g, weights, mask)
        return bound

    def priced_out(mask: int, bound: int) -> bool:
        # mask holds no set that beats the incumbent, or ties it and sorts first
        return bound < best_w or (bound == best_w and not may_tie(mask))

    def held(container: int) -> bool:
        return any(not container & ~done for done in searched)

    def search(container: int) -> None:
        nonlocal best_mask, best_w, may_tie, nodes
        r = mis_base(g, weights, within=container, incumbent=best_mask)
        nodes += r.stats["nodes"]
        searched.append(container)
        if r.best.mask != best_mask:
            best_mask, best_w = r.best.mask, r.weight
            may_tie = _earlier_tie_test(g, weights, best_mask, best_w)

    def keep(f: int, reach: int, container: bool) -> bool:
        # a cover is at most reach's weight, so a reach too small to reach
        # the incumbent's weight needs no price; a container that one cover
        # does not price out meets the mirrored one before it is searched,
        # which prices it out exactly when the lower of the two would
        if reach.bit_count() * heaviest < best_w or priced_out(reach, cover(reach)):
            return False
        if container:
            if priced_out(reach, _clique_cover_bound(g, weights, reach, highest=True)):
                return False
            # a container is searched when the walk hands it over, so every
            # later price and tie test meets the raised incumbent
            if not held(reach):
                search(reach)
        return True

    coll = build_hypergraph_collection(g, min(1.0, 1.0 / (config.epsilon * g.average_degree)), keep=keep)
    if not searched:
        # the walk priced every container out, so any search returns S: the
        # smallest container is the cheapest, and the answer still comes
        # out of a search, as the module docstring says
        search(coll.containers[0].mask)
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
            "walked": coll.stats["candidate_count"],
            "cut": coll.stats.get("cut", 0),
            "searched": len(searched),
            "tau": coll.stats["tau"],
            "vacuous": coll.stats["vacuous"],
            "largest_subproblem": coll.stats["max_container_size"],
            "nodes": nodes,
        },
    )
