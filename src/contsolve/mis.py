"""Maximum (weighted) independent set.

The base solver is branch-and-bound on the max-degree vertex with a greedy
seed and a residual-weight prune; it can be confined to a vertex mask, made
to hold a given independent set, and started from a given incumbent. The
container wrapper takes the greedy set S over V as its incumbent and runs the
base solver inside a few containers of the parent graph, carrying one
incumbent across them. Each search holds its container's fingerprint F and
returns the better of the incumbent and the best set of the container that
holds F. That is exact, because the optimum holds its fingerprint and lies
inside that fingerprint's container, and the prune only cuts branches that
cannot beat or tie the incumbent.

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
says when). The walk asks only about what a set whose fingerprint starts
with F can hold, so no price or search sees a vertex that the scan would
have taken before max F. A set whose size times the heaviest weight is
below the incumbent's weight is answered no before it is priced, as its
price is at most its weight. Otherwise it is priced by one cover, each
clique grown from the lowest free vertex by the lowest common free
neighbour. A container that this cover does not price out, about to be
searched, is priced again by the mirrored cover (highest free vertex,
highest common free neighbour): a search costs tens of covers, and neither
cover is always the tighter. As the first cover did not price it out, the
mirrored one prices it out exactly when the lower of the two would. Pricing
every ask by both took about as many nodes and no less time. Only the last
lowest-first price is kept, with its mask. A leaf's heavy set lies in S(F),
so its container minus S(F) is its reach, and its container ask, right
after its reach ask, reuses that price; on perfbench's mis graphs a memo of
every price met no other repeat. F has no neighbour in the sets asked
about, so each vertex of F is a clique of its own in either cover. A
container C of F that passes when the walk is done with it is searched
then, with F forced, so every later price, a higher sibling's included,
meets the raised incumbent. An earlier search of C' with F' forced saw
every set of C that holds F only if F' lies in F, and none does: the walk
hands F over after its subtree, whose fingerprints hold F and more, and
any other one handed over before F lies in the subtree of a lower
sibling of F or of one of F's ancestors, so it holds that sibling's
vertex, which F lacks. Nothing is searched after the walk, except when
it searched nothing, because S outweighs every container, or ties it
with no room for an earlier tie: then any search returns S, and the
smallest kept container, the cheapest, is searched anyway, with nothing
forced, so every answer of this path comes out of a search of the base
solver, whose own checks then run (perfbench's MIS check relies on it).
The answer is the one every container's search would give: the
lexicographically smallest set of maximum weight.

That is `containers` mode, which always builds, through the hypergraph
engine on g at p = 1/(epsilon * average degree): its threshold is tau =
ceil(epsilon * average degree), the regular scheme's on a regular graph, at
any degree. The walk is cut, so it is walked once, at that threshold: past
`containers.CANDIDATE_BUDGET` fingerprints it refuses with SizeLimitError
at stage "fingerprint-enumeration", as a raised threshold would hand B&B
larger containers and repeat the searches already run. `auto` runs the
base solver on V and says why in `stats["path"]`: no rule fitted to a sweep
of measured rows picks the container path yet (README.md has the rows
measured so far)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .core import Graph, ParameterError, VertexSet
from .containers import build_hypergraph_collection


@dataclass
class MisResult:
    best: VertexSet
    size: int
    weight: int
    stats: dict = field(default_factory=dict)


def _greedy_seed(g: Graph, weights: list[int], alive: int) -> int:
    """Min-degree greedy independent set inside `alive`, as the initial lower
    bound. Each pick is the alive vertex of least degree within `alive`,
    then of greatest weight, then of lowest id. Every vertex of degree 0 is
    taken at the scan that finds it: each would be picked before any other
    vertex, and taking one changes no degree."""
    adj = g.adj_mask
    chosen = 0
    while alive:
        isolated = 0
        best_v, best_deg, best_w = -1, g.n, -1
        m = alive
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            deg = (adj[v] & alive).bit_count()
            if not deg:
                isolated |= low
            elif deg < best_deg or (deg == best_deg and weights[v] > best_w):
                best_v, best_deg, best_w = v, deg, weights[v]
        chosen |= isolated
        alive &= ~isolated
        if best_v >= 0:
            chosen |= 1 << best_v
            alive &= ~(adj[best_v] | (1 << best_v))
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
    if len(weights) != g.n or (weights and min(weights) < 0):
        raise ParameterError("weights must be non-negative, one per vertex")
    return weights


def mis_base(
    g: Graph,
    weights: list[int] | None = None,
    *,
    within: int | None = None,
    incumbent: int | None = None,
    forced: int = 0,
) -> MisResult:
    """Exact maximum-weight independent set; unit weights by default. Ties
    resolve to the lexicographically smallest sorted vertex tuple.

    `within` is the vertex mask the search may use (all of V by default).
    `forced` is an independent subset of `within` that every set searched
    holds. `incumbent` is an independent set of g, anywhere in V, to start
    from instead of `forced` plus a greedy set inside `within`; the result is
    the best of it and the independent subsets of `within` that hold
    `forced`, under the same tie rule.

    It runs on an explicit stack: each node pushes its exclude branch, then
    its include branch, which is searched first."""
    weights = _check_weights(g, weights)
    if within is None:
        within = (1 << g.n) - 1
    elif within >> g.n:
        raise ParameterError("within must be a vertex mask of the graph")
    if forced & ~within or not g.is_independent(forced):
        raise ParameterError("forced must be an independent subset of within")
    # the vertices a set holding `forced` may add to it
    free = within & ~forced
    for v in VertexSet(forced):
        free &= ~g.adj_mask[v]
    forced_w = sum(weights[v] for v in VertexSet(forced))
    if incumbent is None:
        best_mask = forced | _greedy_seed(g, weights, free)
    elif incumbent >> g.n or not g.is_independent(incumbent):
        raise ParameterError("incumbent must be an independent vertex mask of the graph")
    else:
        best_mask = incumbent
    best_w = sum(weights[v] for v in VertexSet(best_mask))
    nodes = 0
    stack = [(free, forced, forced_w)]  # (alive, chosen, chosen_w) of each branch left
    while stack:
        alive, chosen, chosen_w = stack.pop()
        nodes += 1
        rest_w = sum(weights[v] for v in VertexSet(alive))
        if chosen_w + rest_w < best_w:
            continue
        if not alive:
            if chosen_w > best_w or (
                chosen_w == best_w and tuple(VertexSet(chosen)) < tuple(VertexSet(best_mask))
            ):
                best_mask, best_w = chosen, chosen_w
            continue
        # branch on the max-degree alive vertex, lowest id on ties
        pivot, pivot_deg = -1, -1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (g.adj_mask[v] & alive).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        stack.append((alive & ~(1 << pivot), chosen, chosen_w))
        stack.append((alive & ~(g.adj_mask[pivot] | (1 << pivot)), chosen | (1 << pivot), chosen_w + weights[pivot]))
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
    walk listed, each one whose reach ask passed, and the root; `containers`,
    the distinct containers it kept; `cut`, the reach asks refused, each
    skipping a subtree; `searched`, the container searches, the one after a
    walk that searched nothing included; `nodes`, the B&B nodes of all of them;
    `largest_subproblem`, the most free vertices a search got: its container
    minus the fingerprint it forced; and `covers`, the clique covers `keep`
    computed, lowest-first and mirrored. All of them count the one walk, at
    threshold `tau`, which is never raised (the module docstring says why),
    and `vacuous` is whether V itself is a container."""
    config = config or MisConfig()
    weights = _check_weights(g, weights)
    if not 0 < config.epsilon < 0.5:
        raise ParameterError(f"epsilon must be in (0, 1/2), got {config.epsilon}")
    if config.mode not in ("auto", "base", "containers"):
        raise ParameterError(f"unknown mode {config.mode!r}")
    if config.mode != "containers":
        r = mis_base(g, weights)
        r.stats["path"] = "base" if config.mode == "base" else (
            "base (auto: no measured rule picks the container path yet)")
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
    searched = nodes = largest = covers = 0
    # the last mask given a lowest-first cover, and its price: a leaf's
    # container ask repeats its reach ask
    priced_mask = priced = -1

    def search(container: int, f: int) -> None:
        nonlocal best_mask, best_w, may_tie, searched, nodes, largest
        r = mis_base(g, weights, within=container, incumbent=best_mask, forced=f)
        nodes += r.stats["nodes"]
        largest = max(largest, (container & ~f).bit_count())
        searched += 1
        if r.best.mask != best_mask:
            best_mask, best_w = r.best.mask, r.weight
            may_tie = _earlier_tie_test(g, weights, best_mask, best_w)

    def keep(f: int, reach: int, container: bool) -> bool:
        nonlocal priced_mask, priced, covers
        # a cover is at most reach's weight, so a reach too small to reach
        # the incumbent's weight needs no price
        if reach.bit_count() * heaviest < best_w:
            return False
        if reach != priced_mask:
            priced_mask, priced = reach, _clique_cover_bound(g, weights, reach)
            covers += 1
        # priced out: reach holds no set that beats the incumbent, or ties
        # it and sorts first
        if priced < best_w or (priced == best_w and not may_tie(reach)):
            return False
        if container:
            # a container that one cover does not price out meets the
            # mirrored one before it is searched, which prices it out
            # exactly when the lower of the two would
            price = _clique_cover_bound(g, weights, reach, highest=True)
            covers += 1
            if price < best_w or (price == best_w and not may_tie(reach)):
                return False
            # a container is searched when the walk hands it over, so every
            # later price and tie test meets the raised incumbent
            search(reach, f)
        return True

    # p = min(1, 1/(epsilon * average degree)), with no division by a
    # product that underflows to 0.0 at a tiny epsilon
    coll = build_hypergraph_collection(g, 1.0 / max(1.0, config.epsilon * g.average_degree), keep=keep)
    if not searched:
        # the walk priced every container out, so any search returns S: the
        # smallest container is the cheapest, and the answer still comes
        # out of a search, as the module docstring says
        search(coll.containers[0].mask, 0)
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
            "searched": searched,
            "tau": coll.stats["tau"],
            "vacuous": coll.stats["vacuous"],
            "largest_subproblem": largest,
            "nodes": nodes,
            "covers": covers,
        },
    )
