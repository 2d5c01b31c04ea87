"""Exact k-coloring decision via inclusion-exclusion over independent sets.

F(G) = sum over vertex subsets V' of (-1)^(n-|V'|) * i(G[V'])^k counts the
ordered k-tuples of independent sets whose union is V, so G is k-colorable
iff F(G) > 0. The constrained variant confines the j-th set to a given
container and factors through the extensions-sum evaluators; the full solver
either runs the plain 2^n sum or, on dense graphs, tests pairs of unions of
independence containers with per-pair color counts, deciding each with the
k=2 evaluator -- unless the priced pairs cost at least the whole-V sum,
which then decides alone. Counts are exact big integers throughout:
positivity hinges on sign cancellation, so no modular shortcuts."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from .containers import build_almost_regular_collection, maximal_masks
from .core import Graph, ParameterError, SizeLimitError, VertexSet
from .extsum import (
    ExtSumInstance,
    eval_k2,
    eval_k3,
    eval_naive,
)

IS_TABLE_CEILING = 30
BASELINE_CEILING = 26
# Measured cost of one covering-pair test, all k-1 color counts, per unit of
# (k-1)(2^|X| + 2^|Y|), in units of one subset of the whole-V sum (whose time
# is about 2^n units at any small k): median 4.4, range 3.4-5.5 over G(n, 0.6),
# n = 12-18, k = 2-5, random covering pairs, cold table caches.
PAIR_ENTRY_COST = 4


@dataclass(frozen=True)
class IsCountTable:
    """Independent-set counts i(G[V']) for every subset V' of a domain."""

    domain: VertexSet
    order: tuple[int, ...]  # ascending vertex ids of the domain
    counts: tuple[int, ...]  # indexed by local bitmask over `order`

    def count(self, subset: VertexSet) -> int:
        if subset.mask & ~self.domain.mask:
            raise ParameterError("subset not inside the table domain")
        local = 0
        for j, v in enumerate(self.order):
            if (subset.mask >> v) & 1:
                local |= 1 << j
        return self.counts[local]


@lru_cache(maxsize=2048)
def _cached_is_table(g: Graph, domain: VertexSet) -> IsCountTable:
    return count_is_dp(g, domain)


def count_is_dp(g: Graph, domain: VertexSet, ceiling: int = IS_TABLE_CEILING) -> IsCountTable:
    """Full table via i(V') = i(V' minus pivot) + i(V' minus pivot's closed
    neighborhood), pivot = lowest-id vertex; subsets in ascending bitmask
    order so both recurrence arguments are already computed."""
    order = tuple(domain)
    w = len(order)
    if w > ceiling:
        raise SizeLimitError("is-count-table", f"domain of {w} exceeds ceiling {ceiling}")
    closed = []
    for v in order:
        nb = (g.adj_mask[v] | (1 << v)) & domain.mask
        local = 0
        for j, u in enumerate(order):
            if (nb >> u) & 1:
                local |= 1 << j
        closed.append(local)
    counts = [0] * (1 << w)
    counts[0] = 1
    for m in range(1, 1 << w):
        j = (m & -m).bit_length() - 1
        counts[m] = counts[m & (m - 1)] + counts[m & ~closed[j]]
    return IsCountTable(domain=domain, order=order, counts=tuple(counts))


def inclusion_exclusion_F(g: Graph, k: int, ceiling: int = BASELINE_CEILING) -> int:
    """Number of ordered k-tuples of independent sets covering V(G)."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    if g.n > ceiling:
        raise SizeLimitError("inclusion-exclusion", f"n={g.n} exceeds ceiling {ceiling}")
    table = count_is_dp(g, VertexSet((1 << g.n) - 1), ceiling=max(ceiling, g.n))
    total = 0
    for m in range(1 << g.n):
        term = pow(table.counts[m], k)
        if (g.n - m.bit_count()) & 1:
            total -= term
        else:
            total += term
    return total


@lru_cache(maxsize=4096)
def _signed_table(g: Graph, container: VertexSet, fresh: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Variables = container vertices; entry for S subseteq container is
    (-1)^|S & fresh| * i(G[S]), where fresh is the part of the container not
    claimed by earlier containers. Splitting the global (-1)^|V'| sign along
    this partition is what lets each factor see only its own variables."""
    table = _cached_is_table(g, container)
    order = table.order
    fresh_local = 0
    for j, v in enumerate(order):
        if (fresh >> v) & 1:
            fresh_local |= 1 << j
    signed = tuple(
        -c if (m & fresh_local).bit_count() & 1 else c
        for m, c in enumerate(table.counts)
    )
    return order, signed


def constrained_extsum_instance(g: Graph, containers: list[VertexSet]) -> ExtSumInstance:
    subsets = []
    tables = []
    claimed = 0
    for c in containers:
        fresh = c.mask & ~claimed
        claimed |= c.mask
        order, signed = _signed_table(g, c, fresh)
        subsets.append(order)
        tables.append(signed)
    return ExtSumInstance(g.n, tuple(subsets), tuple(tables))


def _merge_equal_subsets(inst: ExtSumInstance) -> ExtSumInstance:
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, xs in enumerate(inst.subsets):
        groups.setdefault(xs, []).append(i)
    if len(groups) == inst.k:
        return inst
    subsets = []
    tables = []
    for xs, idxs in groups.items():
        merged = list(inst.tables[idxs[0]])
        for i in idxs[1:]:
            tab = inst.tables[i]
            merged = [a * b for a, b in zip(merged, tab)]
        subsets.append(xs)
        tables.append(tuple(merged))
    return ExtSumInstance(inst.universe, tuple(subsets), tuple(tables))


def constrained_F(g: Graph, containers: list[VertexSet]) -> int:
    """Ordered tuples of independent sets covering V with the j-th confined
    to containers[j]. Zero immediately when the containers miss a vertex."""
    if not containers:
        raise ParameterError("need at least one container")
    union = 0
    for c in containers:
        union |= c.mask
    if union != (1 << g.n) - 1:
        return 0
    inst = _merge_equal_subsets(constrained_extsum_instance(g, containers))
    if inst.k == 1:
        value = sum(inst.tables[0])
    elif inst.k == 2:
        value = eval_k2(inst)
    elif inst.k == 3:
        value = eval_k3(inst)
    else:
        value = eval_naive(inst)
    return -value if g.n & 1 else value


@dataclass
class ColoringConfig:
    mode: str = "auto"  # auto | baseline | containers
    degree_threshold: float = 8.0  # auto picks containers at or above this
    degree_ratio: float = 2.0  # max/average degree bound for the base build
    candidate_budget: int = 20000
    max_base_containers: int = 10  # engine raises its threshold to fit this
    certificate: bool = False


@dataclass
class ColoringResult:
    colorable: bool
    k: int
    certificate: dict[int, int] | None = None
    stats: dict = field(default_factory=dict)


def _decide_baseline(g: Graph, k: int) -> bool:
    return inclusion_exclusion_F(g, k) > 0


def _decide_containers(g: Graph, k: int, config: ColoringConfig, stats: dict) -> bool:
    """Container-pair decision.

    Any proper k-coloring splits its color classes into two non-empty groups
    whose classes' base containers have unions (X, Y); positivity of the
    constrained count is monotone in the containers, so it is enough to test
    supersets of those unions. Each group has at most k-1 classes, hence
    candidates are unions of k-1 base containers (inclusion-maximal ones
    only), and by symmetry a pair (X, Y) needs just the k-1 color counts.

    The covering pairs are priced first, at PAIR_ENTRY_COST * (k-1)(2^|X| +
    2^|Y|) each, in the time units of one subset of the whole-V sum. When
    that total is at least the 2^n of the whole-V sum -- always so when V
    itself is the only candidate -- one whole-V inclusion-exclusion sum
    decides instead."""
    # the ratio only parameterizes the engine threshold, so widen it to the
    # measured value rather than reject graphs above the configured one
    ratio = max(config.degree_ratio, g.max_degree / g.average_degree * (1 + 1e-9))
    base = build_almost_regular_collection(
        g,
        ratio,
        candidate_budget=config.candidate_budget,
        max_containers=config.max_base_containers,
    )
    stats["base_containers"] = len(base)
    if k == 1:
        return g.m == 0
    # any union over non-maximal base containers is dominated by a union
    # over their supersets
    maximal_base = maximal_masks(c.mask for c in base.containers)
    take = min(k - 1, len(maximal_base))
    unions = (reduce(or_, combo, 0) for combo in combinations(maximal_base, take))
    maximal = [VertexSet(m) for m in maximal_masks(unions)]
    stats["candidate_containers"] = len(maximal)
    full = (1 << g.n) - 1
    pairs = sorted(
        (maximal[ia].cardinality + maximal[ib].cardinality, ia, ib)
        for ia in range(len(maximal))
        for ib in range(ia, len(maximal))
        if maximal[ia].mask | maximal[ib].mask == full
    )
    pair_cost = PAIR_ENTRY_COST * sum(
        (k - 1) * ((1 << maximal[ia].cardinality) + (1 << maximal[ib].cardinality))
        for _, ia, ib in pairs
    )
    whole_cost = 1 << g.n
    stats["pair_cost"] = pair_cost
    stats["whole_cost"] = whole_cost
    if pair_cost >= whole_cost:
        stats["dispatch"] = "whole-V"
        stats["pairs_tested"] = 0
        return inclusion_exclusion_F(g, k, ceiling=IS_TABLE_CEILING) > 0
    stats["dispatch"] = "pairs"
    tested = 0
    for _, ia, ib in pairs:
        ca, cb = maximal[ia], maximal[ib]
        for a in range(1, k):
            assigned = [ca] * a + [cb] * (k - a)
            tested += 1
            if constrained_F(g, assigned) > 0:
                stats["pairs_tested"] = tested
                return True
            if ia == ib:
                break  # identical containers: every count is the same test
    stats["pairs_tested"] = tested
    return False


def _force_color_gadget(g: Graph, k: int, fixed: dict[int, int]) -> Graph:
    """g plus a k-clique of color vertices; a fixed vertex is joined to every
    color vertex except its own, so any proper coloring of the gadget assigns
    fixed vertices consistently (up to renaming colors)."""
    n = g.n
    edges = list(g.edges)
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((n + i, n + j))
    for v, c in fixed.items():
        for i in range(k):
            if i != c:
                edges.append((v, n + i))
    return Graph(n + k, edges)


def _extract_certificate(g: Graph, k: int) -> dict[int, int] | None:
    fixed: dict[int, int] = {}
    for v in range(g.n):
        for c in range(k):
            fixed[v] = c
            if inclusion_exclusion_F(_force_color_gadget(g, k, fixed), k) > 0:
                break
        else:
            return None
    for u, w in g.edges:
        if fixed[u] == fixed[w]:
            raise RuntimeError("extracted coloring is improper; this is a bug")
    return fixed


def solve_kcoloring(g: Graph, k: int, config: ColoringConfig | None = None) -> ColoringResult:
    config = config or ColoringConfig()
    if k < 1:
        raise ParameterError("k must be at least 1")
    stats: dict = {}
    mode = config.mode
    if mode == "auto":
        mode = (
            "containers"
            if g.m > 0 and g.average_degree >= config.degree_threshold
            else "baseline"
        )
    stats["path"] = mode
    if mode == "baseline":
        colorable = _decide_baseline(g, k)
    elif mode == "containers":
        colorable = _decide_containers(g, k, config, stats)
    else:
        raise ParameterError(f"unknown mode {config.mode!r}")
    cert = None
    if colorable and config.certificate:
        cert = _extract_certificate(g, k)
        if cert is None:
            raise RuntimeError("decision positive but certificate extraction failed")
    return ColoringResult(colorable=colorable, k=k, certificate=cert, stats=stats)
