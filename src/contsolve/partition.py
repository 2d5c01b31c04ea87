"""Partition containers and subset-collection refinements.

A partition container collection for tuple size k has the property that any k
independent sets can be split into two groups, each group fully inside one
container. The containers are unions of at most k base containers kept under
a size ceiling. `cover_split` gives a tuple's witness from the base
containers locating its sets, never from the union collection. That
collection, the set of such unions in no order, is built only on demand by
one enumeration, `container_unions`. With masks of at most 64 bits it
extends each combination by all later masks in one big-int OR of fixed-width
fields, read back as an array, and counts those candidates against its
budget one batch at a time. Two refinement primitives support the
constructions: a Venn (membership-vector pigeonhole) split of a subset
family, and a matching-based split that trades a maximal matching avoiding
all subsets for part unions that each miss a fraction of the vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import Graph, ParameterError, PreconditionError, SizeLimitError, VertexSet, pack_fields, unpack_fields
from .containers import (
    ContainerCollection,
    build_almost_regular_collection,
    build_regular_collection,
)

# candidate unions a `container_unions` enumeration (`materialize`) tries,
# and splits one `cover_split` loop tries, before it raises SizeLimitError
UNION_BUDGET = 200000
# largest tuple size k the partition builders take, refused before any
# power of two is formed: up to it epsilon = 2^-(k+2) keeps the size
# ceiling (1 - epsilon)n below n in floats (from k = 52 it is n), and the
# regular builder's degree floor k*2^(2k+3) is at most a 109-bit int
MAX_K = 50


@dataclass(frozen=True)
class RefinementResult:
    """Partition of a subset collection's index set with exact part unions."""

    parts: tuple[tuple[tuple[int, ...], VertexSet], ...]  # (indices, union)
    matching_size: int = 0  # populated by matching_refinement


def _most_frequent_code(vertices: Iterable[int], subsets: list[VertexSet]) -> int:
    """The most frequent membership vector over `vertices`, encoded with bit
    i set for membership in subsets[i]; ties go to the smallest code, and no
    vertices give 0."""
    freq = Counter(sum(1 << i for i, s in enumerate(subsets) if v in s) for v in vertices)
    return min(freq, key=lambda code: (-freq[code], code), default=0)


def venn_refinement(universe_n: int, subsets: list[VertexSet]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split indices into (A, B) by the most frequent membership vector w:
    A = {i : w_i = 1}, B = {i : w_i = 0}. Every vertex in the winning class
    lies in all A-subsets and no B-subset, so the A-intersection has at least
    n/2^k vertices and the B-union at most (1 - 2^-k)n. Ties go to the
    smallest vector encoded with bit i as membership in subsets[i]."""
    if not subsets:
        raise ParameterError("need at least one subset")
    best = _most_frequent_code(range(universe_n), subsets)
    k = len(subsets)
    a = tuple(i for i in range(k) if (best >> i) & 1)
    b = tuple(i for i in range(k) if not (best >> i) & 1)
    return a, b


def uncovered_edges(g: Graph, subsets: list[VertexSet]) -> list[tuple[int, int]]:
    """Edges of g contained entirely in no subset."""
    out = []
    for u, v in g.edges:
        if not any(u in s and v in s for s in subsets):
            out.append((u, v))
    return out


def greedy_matching(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximal matching by first-fit; size at least |edges|/(2*maxdeg)."""
    used = 0
    out = []
    for u, v in edges:
        if (used >> u) & 1 or (used >> v) & 1:
            continue
        out.append((u, v))
        used |= (1 << u) | (1 << v)
    return out


def matching_refinement(g: Graph, subsets: list[VertexSet]) -> RefinementResult:
    """Two-part refinement from a matching avoiding every subset.

    Each matching pair (e0, e1) with e0 < e1 gets a vector with bit i = 1
    when e0 is in subsets[i] (then e1 is not, since the pair is inside no
    subset). The most frequent vector w yields parts A = {i : w_i = 0} and
    B = {i : w_i = 1}; the winning pairs' e0 vertices avoid the A-union and
    their e1 vertices avoid the B-union, so both unions have size at most
    n - |M|/2^k. Empty parts are dropped. When every edge lies inside some
    subset there is no matching, and PreconditionError is raised."""
    if not subsets:
        raise ParameterError("need at least one subset")
    matching = greedy_matching(uncovered_edges(g, subsets))
    if not matching:
        raise PreconditionError("every edge lies inside some subset")
    k = len(subsets)
    best = _most_frequent_code((e0 for e0, _ in matching), subsets)
    a = tuple(i for i in range(k) if not (best >> i) & 1)
    b = tuple(i for i in range(k) if (best >> i) & 1)
    parts = []
    for indices in (a, b):
        if not indices:
            continue
        union = VertexSet(0)
        for i in indices:
            union = union | subsets[i]
        parts.append((indices, union))
    return RefinementResult(parts=tuple(parts), matching_size=len(matching))


def container_unions(masks: Sequence[int], count: int, ceiling: float = math.inf) -> set[int]:
    """The distinct unions of 1..count of `masks`. A candidate is a
    combination of 1..count masks whose union has at most `ceiling`
    vertices (a union only grows, so no superset of a combination over the
    ceiling is tried), counted and extended whatever its size; more than
    `UNION_BUDGET` candidates raise SizeLimitError.

    The combinations of fewer than `count` masks are walked one at a time.
    The last level, each combination of count - 1 masks extended by every
    later mask, holds most of the candidates. With count > 1 and no mask
    over 64 bits, it takes one packed step per combination: the masks are
    fixed-width fields of one Python int, as in `coloring.count_is_dp`'s
    table, the later ones are OR-ed with the combination's union copied into
    every field, and the fields are read back as one array. Each field is
    tested against the ceiling only when the union's size plus the largest
    mask's can pass it. A step's candidates are counted as one batch, so the
    budget raises after the batch that passes it, at the same total of
    candidates as the loop."""
    limit = UNION_BUDGET
    unions: set[int] = set()
    tried = 0
    # unions of one mask are the masks themselves, no array field holds a
    # mask over 64 bits, and an empty list has no max
    packed = count > 1 and len(masks) > 0 and max(masks) >> 64 == 0
    if packed:
        itemsize = next(b for b in (1, 2, 4, 8) if max(masks) >> 8 * b == 0)
        fields = pack_fields(masks, itemsize)
        ones = pack_fields([1] * len(masks), itemsize)
        widest = max(map(int.bit_count, masks))
    stack = [(0, 0, 1)]  # (first index to add, union, size of its extensions)
    while stack:
        start, union, size = stack.pop()
        if packed and size == count:
            shift = 8 * itemsize * start
            grown = (fields >> shift) | union * (ones >> shift)
            batch = unpack_fields(grown.to_bytes(itemsize * (len(masks) - start), "little"), itemsize)
            if union.bit_count() + widest > ceiling:
                batch = [u for u in batch if u.bit_count() <= ceiling]
            tried += len(batch)
            if tried > limit:
                raise _over_union_budget(limit)
            unions.update(batch)
            continue
        for i in range(start, len(masks)):
            grown = union | masks[i]
            if grown.bit_count() > ceiling:
                continue
            tried += 1
            if tried > limit:
                raise _over_union_budget(limit)
            unions.add(grown)
            if size < count:
                stack.append((i + 1, grown, size + 1))
    return unions


def _over_union_budget(limit: int) -> SizeLimitError:
    return SizeLimitError("partition-container-materialization", f"more than {limit} candidate unions")


@dataclass
class PartitionContainerCollection:
    """Unions of at most k base containers under the ceiling (1-epsilon)n.

    The union collection is only materialized on demand, as a set of int
    masks with no order; `cover_split` produces an explicit split witness
    for a k-tuple of independent sets from the base containers locating
    them, without materializing."""

    base: ContainerCollection
    k: int
    epsilon: float
    n: int
    source: str  # "regular" | "almost-regular"
    stats: dict = field(default_factory=dict)
    unions: frozenset[int] | None = None  # set by `materialize`

    @property
    def size_ceiling(self) -> float:
        return (1.0 - self.epsilon) * self.n

    @property
    def low_degree(self) -> bool:
        """The base's flag: a base with no containers (below the regular
        degree floor unforced, or on an edgeless graph) has no unions."""
        return not self.base.containers

    def materialize(self) -> frozenset[int]:
        """The distinct unions of 1..k base containers under the ceiling, as
        int masks in no order, kept in `unions`; past `UNION_BUDGET`
        candidates, SizeLimitError. They are not sorted: no reader picks
        among them, and a sort by size, then by mask, is about a third of
        this call (2.1-2.6 ms of 6.1-6.6 ms on n = 16 cli-ingest graphs, best
        of 5, 2-CPU machine)."""
        if self.unions is None:
            masks = [c.mask for c in self.base.containers]
            self.unions = frozenset(container_unions(masks, self.k, self.size_ceiling))
        return self.unions

    def cover_split(
        self, independents: list[VertexSet]
    ) -> tuple[tuple[int, ...], VertexSet | None, VertexSet | None]:
        """Split witness for a tuple of independent sets.

        Returns (A, container_A, container_B) where A indexes the first
        group, the A-union is inside container_A and the complement-group
        union inside container_B; an empty group gets container None. Each
        side's container is the union of the located base containers
        D_j = locate(I_j) of its sets, and the first of the 2^k splits, in
        the order of A's bit mask, whose two unions are both under the
        ceiling is returned. The splits are made one at a time, and trying
        more than `UNION_BUDGET` of them raises SizeLimitError. A base with
        no locator, or a tuple that no split fits, raises PreconditionError;
        the union collection is never materialized."""
        if len(independents) != self.k:
            raise ParameterError(f"expected {self.k} sets, got {len(independents)}")
        if self.base.locate is None:
            raise PreconditionError("base collection has no locator")
        located = [self.base.locate(i).mask for i in independents]
        ceiling = self.size_ceiling
        for split in range(1 << self.k):
            if split == UNION_BUDGET:
                raise SizeLimitError("partition-cover-split", f"more than {UNION_BUDGET} splits")
            ua = ub = 0
            for j, mask in enumerate(located):
                if split >> j & 1:
                    ua |= mask
                else:
                    ub |= mask
            if ua.bit_count() <= ceiling and ub.bit_count() <= ceiling:
                a = tuple(j for j in range(self.k) if split >> j & 1)
                return a, VertexSet(ua) if a else None, VertexSet(ub) if len(a) < self.k else None
        raise PreconditionError("no split of the tuple fits any container pair")


def _check_k(k: int) -> None:
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > MAX_K:
        raise ParameterError(f"k must be at most {MAX_K}, got {k}")


def build_partition_collection_regular(
    g: Graph, k: int, *, force: bool = False
) -> PartitionContainerCollection:
    """Regular-graph construction: base containers at slack 2^-(k+1), unions
    of at most k of them under the ceiling (1 - 2^-(k+2))n. Below the degree
    floor k*2^(2k+3) the base is an empty, flagged collection unless forced,
    and an edgeless graph's forced base is flagged too; either way the result
    is `low_degree`. k outside 1..`MAX_K` is refused with ParameterError."""
    _check_k(k)
    if not g.is_regular():
        raise ParameterError("graph is not regular; use the almost-regular builder")
    eps_base = 2.0 ** -(k + 1)
    d0 = k * 2 ** (2 * k + 3)
    d = g.degree(0) if g.n else 0
    if d < d0 and not force:
        base = ContainerCollection(
            containers=(),
            params=None,
            source="regular-graph",
            low_degree=True,
            stats={"vacuous": False},
        )
    else:
        base = build_regular_collection(g, eps_base, force=True)
    return PartitionContainerCollection(
        base=base,
        k=k,
        epsilon=2.0 ** -(k + 2),
        n=g.n,
        source="regular",
        stats={"base_epsilon": eps_base, "d0": d0, "forced": force and d < d0},
    )


def build_partition_collection_almost_regular(g: Graph, k: int) -> PartitionContainerCollection:
    """Almost-regular construction via the almost-regular container builder;
    size ceiling (1 - epsilon'')n with epsilon'' = 1/(C*2^(k+2)), C the
    measured max/average degree ratio (1 on a regular graph, where
    epsilon'' is the regular construction's 2^-(k+2)). k outside
    1..`MAX_K` is refused with ParameterError."""
    _check_k(k)
    base = build_almost_regular_collection(g)
    ratio = g.max_degree / g.average_degree
    return PartitionContainerCollection(
        base=base,
        k=k,
        epsilon=1.0 / (ratio * 2 ** (k + 2)),
        n=g.n,
        source="almost-regular",
        stats={"degree_ratio": ratio},
    )


def partition_collection_report(coll: PartitionContainerCollection) -> dict:
    report = {
        "source": coll.source,
        "k": coll.k,
        "epsilon": coll.epsilon,
        "size_ceiling": coll.size_ceiling,
        "low_degree": coll.low_degree,
        "base_container_count": len(coll.base),
        "stats": dict(coll.stats),
    }
    if coll.unions is not None:
        report["container_count"] = len(coll.unions)
    return report

