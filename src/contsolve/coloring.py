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

The IS-count table is one Python int of fields as wide as its largest
count needs, 8, 16 or 32 bits, built one block per vertex by a few big-int
operations, and read out as an array (see `count_is_dp`). The plain sum is
taken as a value histogram, each distinct count raised to the k-th power
once, so no per-subset work runs in Python. When i(V), the largest count,
is below 256, the table has 1-byte items, and its bytes become 8 bit
planes by one 8x8 bit-matrix transpose per 64-bit word; splitting the
entries plane by plane gives the entries of each distinct count as one
mask, and one popcount, of the mask XOR the odd-parity entries, gives its
signed tally. From 256 on the split grows with the distinct counts, so a
Counter tallies the counts of each subset parity instead, the parities
coming as one bytes object doubled bit by bit."""

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
# 2.69-2.75 by tracemalloc at w = 20-22 (64-bit CPython 3.11); the Counter
# tally after it peaks at 1.5-1.6. The budget counts a table's bytes at the
# width 2^w needs: over those, the whole-V sum of a dense graph's 1-byte
# table, bit-plane tally included, peaks at 1.60 at w = 16 and 22 and at
# 2.67-2.86 at w = 10-15
IS_TABLE_PEAK_FACTOR = 3
# bytes of each mask kept between calls: count_is_dp's field masks, by
# (field width, index bit), and the bit-plane tally's three transpose masks
# and odd-parity mask. Every width may be built at any w, so the index bits
# whose block fits are 15, 14 and 13 at 8, 16 and 32 bits: at most 46
# masks, about 1.5 MB
MASK_CACHE_BYTES = 1 << 15
_masks: dict[tuple, int] = {}
# the delta swaps of an 8x8 bit-matrix transpose of each 64-bit word, as
# (shift, one word of the mask)
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
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

    f is the narrowest of 8, 16 and 32 that holds the table's largest
    count: the build starts at 8 and starts again at twice the width when
    a count reaches 2^f (see `_built`). A count is at most 2^w on a domain
    of w vertices, so some width up to the one 2^w needs always finishes.
    `counts` is the table as an array of f-bit unsigned ints. A domain with
    a vertex beyond g is refused with ParameterError, and one whose build
    at that widest width may pass the byte budget before any build (see
    `_check_table_bytes`)."""
    if domain.mask >> g.n:
        raise ParameterError("domain must be a vertex mask of the graph")
    order = tuple(domain)
    w = len(order)
    _check_table_bytes(w, "is-count-table")
    f = 8
    while (t := _built(g, order, f)) is None:
        f <<= 1
    itemsize = f >> 3
    data = t.to_bytes(itemsize << w, "little")
    del t  # the array copies the bytes: two finished tables at most
    return IsCountTable(order=order, counts=unpack_fields(data, itemsize))


def _built(g: Graph, order: tuple[int, ...], f: int) -> int | None:
    """The table over `order` as one int of f-bit fields, or None once a
    count reaches 2^f. i is monotone, so block j's largest count is its top
    field, t[2^j - 1] + t[keep_j], and any other field of the block
    overflows only with it; an overflowing top field carries out past the
    block, so t's bit length shows it after the block's add."""
    t = 1
    for j, v in enumerate(order):
        # the restriction is a temporary, so the last block holds t, its
        # shifted sum and their or: 2.5 finished tables
        t |= (_restricted(t, f, order[:j], g.adj_mask[v]) + t) << (f << j)
        if t.bit_length() > f << (j + 1):
            return None
    return t


def _check_table_bytes(w: int, stage: str) -> None:
    """Refuse a w-vertex IS-count table that may pass the byte budget. Its
    fields may need the narrowest of 8, 16 and 32 bits that holds 2^w, and
    a build may hold IS_TABLE_PEAK_FACTOR times the table's bytes at that
    width; when that is more than `core.MEMORY_BUDGET_BYTES`,
    SizeLimitError at `stage`. At 256 MiB this refuses every domain over 24
    vertices, long before 2^w outgrows a 32-bit field. A narrower build
    that is abandoned is dropped before the next starts, so none holds
    more."""
    f = 8 if w <= 7 else 16 if w <= 15 else 32
    need = IS_TABLE_PEAK_FACTOR * ((f >> 3) << w)
    if need > MEMORY_BUDGET_BYTES:
        raise SizeLimitError(stage, _over_budget(f"a domain of {w}", need))


def _restricted(t: int, f: int, below: tuple[int, ...], adj: int) -> int:
    """t's first 2^len(below) fields, field r replaced by field r & keep,
    keep being the local bits of the vertices `below` outside `adj`: for
    each vertex below[b] in adj, the fields whose index has bit b clear are
    kept and each is copied onto the field 2^b above it."""
    nbytes = (f >> 3) << len(below)
    for b, u in enumerate(below):
        if adj >> u & 1:
            t &= _cached_mask((f, b), nbytes, _field_mask)
            t |= t << (f << b)
    return t


def _cached_mask(key: tuple, nbytes: int, build) -> int:
    """`build(key, size)`, a mask of `size` bytes, for a size of at least
    `nbytes`. Masks of at most MASK_CACHE_BYTES are cached at that length,
    one per key; an `&` costs only its narrower operand, so each serves
    every narrower operand. Wider ones are built per call and dropped."""
    if nbytes > MASK_CACHE_BYTES:
        return build(key, nbytes)
    mask = _masks.get(key)
    if mask is None:
        mask = _masks[key] = build(key, MASK_CACHE_BYTES)
    return mask


def _field_mask(key: tuple[int, int], nbytes: int) -> int:
    """Ones in every f-bit field whose index has bit b clear, key = (f, b),
    over `nbytes` bytes, a multiple of the mask's period."""
    f, b = key
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
    _check_table_bytes(g.n, "inclusion-exclusion")
    counts = count_is_dp(g, VertexSet((1 << g.n) - 1)).counts
    if counts.itemsize == 1:
        # i is monotone, so i(V), the last count, is the largest
        total = _plane_tally(counts, k, counts[-1].bit_length())
    else:
        odd = _parities(g.n, (1 << g.n) - 1)
        # each distinct count is raised to the k-th power once, times how
        # often it occurs among the subsets of each parity
        total = sum(c * pow(i, k) for i, c in Counter(compress(counts, odd.translate(_FLIP))).items())
        total -= sum(c * pow(i, k) for i, c in Counter(compress(counts, odd)).items())
    return -total if g.n & 1 else total


def _plane_tally(counts: array, k: int, depth: int) -> int:
    """The sum over every index s of (-1)^|s| * counts[s]^k, `counts` being
    1-byte values below 2^depth. The entries are split by one bit plane at a
    time, from bit depth - 1 down, into masks of the entries of each
    distinct value v. With odd the entries of odd |s|, a mask m adds
    v^k * (|m| - 2|m & odd|), which is v^k * (|m ^ odd| - |odd|): one
    popcount per mask. The split is depth-first, so at most one pending
    mask per plane is held."""
    planes = _bit_planes(counts, depth)
    entries = (1 << len(counts)) - 1
    odd = _cached_mask(("odd",), (len(counts) + 7) >> 3, _odd_mask) & entries
    half = len(counts) >> 1  # |odd|: half the entries, none of one
    total = 0
    pending = [(0, entries, depth)]
    while pending:
        value, entries, b = pending.pop()
        if not b:
            total += pow(value, k) * ((entries ^ odd).bit_count() - half)
            continue
        b -= 1
        ones = entries & planes[b]
        if ones:
            pending.append((value | 1 << b, ones, b))
        if ones != entries:
            pending.append((value, entries ^ ones, b))
    return total


def _bit_planes(counts: array, depth: int) -> list[int]:
    """Planes 0 .. depth - 1 of the 1-byte `counts`: plane b has bit s set
    when byte s has bit b set. Each 64-bit word of the bytes, zero-padded
    to whole words, is transposed as an 8x8 bit matrix by three delta
    swaps on one int, byte r's bit c going to byte c's bit r, so plane b is
    every 8th byte from byte b."""
    size = (len(counts) + 7) & ~7
    x = int.from_bytes(counts, "little")
    for shift, word in _TRANSPOSE:
        t = (x ^ x >> shift) & _cached_mask((shift, word), size, _word_mask)
        x ^= t ^ t << shift
    data = x.to_bytes(size, "little")
    return [int.from_bytes(data[b::8], "little") for b in range(depth)]


def _word_mask(key: tuple[int, int], nbytes: int) -> int:
    """The 64-bit word key[1] of a transpose step, over `nbytes` bytes."""
    return int.from_bytes(key[1].to_bytes(8, "little") * (nbytes >> 3), "little")


def _odd_mask(key: tuple, nbytes: int) -> int:
    """Bit s set when |s| is odd, for every s below 8 * nbytes, a power of
    two: each doubling appends the complement of the bits so far."""
    odd, width = 0, 1
    while width < nbytes << 3:
        odd |= (odd ^ ((1 << width) - 1)) << width
        width <<= 1
    return odd


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
    # differ only in stats["path"], which the CLI prints as counters.path
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
