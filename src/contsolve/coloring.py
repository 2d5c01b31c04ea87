"""Exact k-coloring decision via inclusion-exclusion over independent sets.

F(G) = sum over vertex subsets V' of (-1)^(n-|V'|) * i(G[V'])^k counts the
ordered k-tuples of independent sets whose union is V, so G is k-colorable
iff F(G) > 0. The constrained variant confines the j-th set to a given
container and factors through the extensions-sum evaluators. The full solver
either runs the plain 2^n sum (baseline) or prices the pairs of unions of
independence containers against it and tests the pairs, with per-pair color
counts, only when they cost less (containers, and auto). The sums are
exact big integers throughout: positivity hinges on sign cancellation, so
no modular shortcuts.

The IS-count table is one Python int of 8-, 16- or 32-bit fields, built
one block per vertex by a few big-int operations, and read out as an
array (see `count_is_dp`). The plain sum is taken as a value histogram:
the subset parities come as one bytes object, doubled bit by bit, the
counts of each parity are tallied by value, and each distinct count is
raised to the k-th power once, so the per-subset work runs in C."""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

from .containers import build_almost_regular_collection, maximal_masks
from .core import MEMORY_BUDGET_BYTES, Graph, ParameterError, SizeLimitError, VertexSet, _over_budget
# eval_k2 is not called here: perfbench's tracer test checks that a name
# bound by `from .extsum import` is patched, and names this one
from .extsum import TABLE_ENTRY_CEILING, ExtSumInstance, eval_k2, evaluate, reduce_refinement  # noqa: F401
from .partition import container_unions

# Cost of one covering-pair test, all k-1 color counts, per unit of
# (k-1)(2^|X| + 2^|Y|), in units of one subset of the whole-V sum (whose time
# is about 2^n units at any small k), over G(n, 0.6), n = 12-18, k = 2-5,
# random covering pairs (each vertex in X, in Y or in both), cold table
# caches, best of 3: median 2.01 over 384 pairs, quartiles 1.72-2.41, range
# 1.04-7.78 (2-CPU machine; two more 384-pair runs had medians 1.97).
PAIR_ENTRY_COST = 2
# peak bytes of a count_is_dp build over the bytes of its finished array:
# 2.69-2.75 by tracemalloc at w = 20-22 (64-bit CPython 3.11)
IS_TABLE_PEAK_FACTOR = 3
# bytes of each field mask count_is_dp keeps between calls, by (field
# width, index bit): at most 33 masks, about 1 MB
MASK_CACHE_BYTES = 1 << 15
_masks: dict[tuple[int, int], int] = {}
# the unsigned array typecode of each field width in bytes
_TYPECODES = {array(code).itemsize: code for code in "LIHB"}
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# the engine raises its threshold until the base collection has at most this
# many containers
MAX_BASE_CONTAINERS = 10


@dataclass(frozen=True)
class IsCountTable:
    """Independent-set counts i(G[V']) for every subset V' of a domain."""

    order: tuple[int, ...]  # ascending vertex ids of the domain
    counts: array  # indexed by local bitmask over `order`


@lru_cache(maxsize=2048)
def _cached_is_table(g: Graph, domain: VertexSet) -> IsCountTable:
    return count_is_dp(g, domain)


def count_is_dp(g: Graph, domain: VertexSet) -> IsCountTable:
    """Full table via i(S) = i(S - j) + i(S minus j's closed neighborhood),
    j = the highest local vertex of S, held as one Python int t of f-bit
    fields, field r holding i(r) for the local bitmask r. It is built one
    block per local vertex j: the subsets whose highest vertex is j are the
    2^j entries r + 2^j, r < 2^j, and their counts are t[r] + t[r & keep_j],
    keep_j being j's non-neighbours below j, all in t already. So block j
    is one add, shift and or of `t` and its restriction `_restricted`.

    A count is at most 2^w on a domain of w vertices, and the field width f
    of `_field_width` holds 2^w, so no field carries into the next.
    `counts` is the table as an array of f-bit unsigned ints. A build over
    the byte budget of `_field_width` is refused before it starts."""
    order = tuple(domain)
    w = len(order)
    f = _field_width(w, "is-count-table")
    itemsize = f >> 3
    t = 1
    for j, v in enumerate(order):
        # the restriction is a temporary, so the last block holds t, its
        # shifted sum and their or: 2.5 finished tables
        t |= (_restricted(t, f, order[:j], g.adj_mask[v]) + t) << (f << j)
    data = t.to_bytes(itemsize << w, "little")
    del t  # the array copies the bytes: two finished tables at most
    counts = array(_TYPECODES[itemsize], data)
    if sys.byteorder == "big":
        counts.byteswap()
    return IsCountTable(order=order, counts=counts)


def _field_width(w: int, stage: str) -> int:
    """The field width f, in bits, of a w-vertex IS-count table: the
    narrowest of 8, 16 and 32 that holds 2^w. A build may hold
    IS_TABLE_PEAK_FACTOR times the table's f/8 * 2^w bytes; when that is
    more than `core.MEMORY_BUDGET_BYTES`, SizeLimitError at `stage`. At 256
    MiB this refuses every domain over 24 vertices, long before 2^w
    outgrows a 32-bit field."""
    f = 8 if w <= 7 else 16 if w <= 15 else 32
    need = IS_TABLE_PEAK_FACTOR * ((f >> 3) << w)
    if need > MEMORY_BUDGET_BYTES:
        raise SizeLimitError(stage, _over_budget(f"a domain of {w}", need))
    return f


def _restricted(t: int, f: int, below: tuple[int, ...], adj: int) -> int:
    """t's first 2^len(below) fields, field r replaced by field r & keep,
    keep being the local bits of the vertices `below` outside `adj`: for
    each vertex below[b] in adj, the fields whose index has bit b clear are
    kept and each is copied onto the field 2^b above it."""
    nbytes = (f >> 3) << len(below)
    for b, u in enumerate(below):
        if adj >> u & 1:
            t &= _field_mask(f, b, nbytes)
            t |= t << (f << b)
    return t


def _field_mask(f: int, b: int, nbytes: int) -> int:
    """Ones in every f-bit field whose index has bit b clear, over at least
    `nbytes` bytes, a multiple of the mask's period. Masks of at most
    MASK_CACHE_BYTES are cached at that length, one per (f, b); an `&`
    costs only its narrower operand, so each serves every narrower table."""
    if nbytes > MASK_CACHE_BYTES:
        return _periodic_mask(f, b, nbytes)
    mask = _masks.get((f, b))
    if mask is None:
        mask = _masks[f, b] = _periodic_mask(f, b, MASK_CACHE_BYTES)
    return mask


def _periodic_mask(f: int, b: int, nbytes: int) -> int:
    half = (f >> 3) << b  # the bytes of 2^b fields
    return int.from_bytes((b"\xff" * half + bytes(half)) * (nbytes // (2 * half)), "little")


def _parities(width: int, flips: int) -> bytes:
    """Byte m is the parity of |m & flips|, for every m < 2^width: each bit
    doubles the bytes, flipping the new half when the bit is in flips."""
    par = b"\x00"
    for j in range(width):
        par += par.translate(_FLIP) if flips >> j & 1 else par
    return par


def inclusion_exclusion_F(g: Graph, k: int) -> int:
    """Number of ordered k-tuples of independent sets covering V(G)."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    # the whole-V table's byte budget, checked at this stage, not the table's
    _field_width(g.n, "inclusion-exclusion")
    counts = count_is_dp(g, VertexSet((1 << g.n) - 1)).counts
    odd = _parities(g.n, (1 << g.n) - 1)
    # each distinct count is raised to the k-th power once, times how often
    # it occurs among the subsets of each parity
    total = sum(c * pow(i, k) for i, c in Counter(compress(counts, odd.translate(_FLIP))).items())
    total -= sum(c * pow(i, k) for i, c in Counter(compress(counts, odd)).items())
    return -total if g.n & 1 else total


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
    signs = _parities(len(order), fresh_local)
    return order, tuple(-c if s else c for c, s in zip(table.counts, signs))


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


def constrained_F(g: Graph, containers: list[VertexSet]) -> int:
    """Ordered tuples of independent sets covering V with the j-th confined
    to containers[j]. Zero immediately when the containers miss a vertex.
    Containers over the same vertices are merged into one factor first."""
    if not containers:
        raise ParameterError("need at least one container")
    union = 0
    for c in containers:
        union |= c.mask
    if union >> g.n:
        raise ParameterError("containers must be vertex masks of the graph")
    if union != (1 << g.n) - 1:
        return 0
    inst = constrained_extsum_instance(g, containers)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, xs in enumerate(inst.subsets):
        groups.setdefault(xs, []).append(i)
    value = evaluate(reduce_refinement(inst, [tuple(idxs) for idxs in groups.values()]))
    return -value if g.n & 1 else value


@dataclass
class ColoringConfig:
    mode: str = "auto"  # baseline | containers; auto is containers
    # unread, since the base build measures the degree ratio; the field stays
    # only because perfbench/workloads.py still passes degree_ratio=3.0
    degree_ratio: float = 2.0
    certificate: bool = False


@dataclass
class ColoringResult:
    colorable: bool
    k: int
    certificate: dict[int, int] | None = None
    stats: dict = field(default_factory=dict)


def _decide_containers(g: Graph, k: int, stats: dict) -> bool:
    """Container-pair decision.

    Any proper k-coloring splits its color classes into two non-empty groups
    whose classes' base containers have unions (X, Y); positivity of the
    constrained count is monotone in the containers, so it is enough to test
    supersets of those unions. Each group has at most k-1 classes, hence
    candidates are the inclusion-maximal unions of at most k-1 maximal base
    containers, from the partition enumeration `container_unions` (past its
    `UNION_BUDGET` candidates, SizeLimitError), and by symmetry a pair
    (X, Y) needs just the k-1 color counts.

    The covering pairs are priced first, at PAIR_ENTRY_COST * (k-1)(2^|X| +
    2^|Y|) each, in the time units of one subset of the whole-V sum. A pair
    with a side over 24 vertices needs a table over extsum's
    TABLE_ENTRY_CEILING, so it cannot be tested, and the pairs are unpayable
    (`stats["pair_cost"]` is None). When they are unpayable or cost at least
    the 2^n of the whole-V sum -- always so when V itself is the only
    candidate -- one whole-V inclusion-exclusion sum decides instead, and
    refuses a table over the byte budget of `_field_width`.

    No price exists without the build: only the build can find that no pair
    covers V, which answers "no" at zero pair cost (G(20, 0.5, 62443) at
    k = 2, where the whole-V sum walks 2^20 subsets). Above n = 48 every
    covering pair has a side of at least ceil(n/2) > 24 and the whole-V sum
    is over its byte budget, so the path refuses before building; it gives up
    only the "no" of a build that would find no covering pair."""
    if k == 1 or g.m == 0:
        # a k-coloring exists for every k when there are no edges, and for
        # k = 1 only then
        return g.m == 0
    side_ceiling = TABLE_ENTRY_CEILING.bit_length() - 1
    if (g.n + 1) // 2 > side_ceiling:
        # every covering pair has a side over extsum's table ceiling, so only
        # the whole-V sum could decide: refused here when it is over budget
        _field_width(g.n, "inclusion-exclusion")
    base = build_almost_regular_collection(g, max_containers=MAX_BASE_CONTAINERS)
    stats["base_containers"] = len(base)
    # any union over non-maximal base containers is dominated by a union
    # over their supersets
    maximal_base = maximal_masks(c.mask for c in base.containers)
    # a union of fewer containers lies inside one of min(k-1, m) containers,
    # so only those unions can be maximal
    fewest = min(k - 1, len(maximal_base))
    unions = container_unions(maximal_base, k - 1, fewest=fewest)
    maximal = [VertexSet(m) for m in maximal_masks(unions)]
    stats["candidate_containers"] = len(maximal)
    full = (1 << g.n) - 1
    pairs = sorted(
        (maximal[ia].cardinality + maximal[ib].cardinality, ia, ib)
        for ia in range(len(maximal))
        for ib in range(ia, len(maximal))
        if maximal[ia].mask | maximal[ib].mask == full
    )
    sides = [(maximal[ia].cardinality, maximal[ib].cardinality) for _, ia, ib in pairs]
    pair_cost = None
    if all(max(side) <= side_ceiling for side in sides):
        pair_cost = PAIR_ENTRY_COST * sum((k - 1) * ((1 << x) + (1 << y)) for x, y in sides)
    whole_cost = 1 << g.n
    stats["pair_cost"] = pair_cost
    stats["whole_cost"] = whole_cost
    if pair_cost is None or pair_cost >= whole_cost:
        stats["dispatch"] = "whole-V"
        stats["pairs_tested"] = 0
        return inclusion_exclusion_F(g, k) > 0
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
    mode = "containers" if config.mode == "auto" else config.mode
    stats["path"] = mode
    if mode == "baseline":
        colorable = inclusion_exclusion_F(g, k) > 0
    elif mode == "containers":
        colorable = _decide_containers(g, k, stats)
    else:
        raise ParameterError(f"unknown mode {config.mode!r}")
    cert = None
    if colorable and config.certificate:
        cert = _extract_certificate(g, k)
        if cert is None:
            raise RuntimeError("decision positive but certificate extraction failed")
    return ColoringResult(colorable=colorable, k=k, certificate=cert, stats=stats)
