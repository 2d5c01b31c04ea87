"""Partition containers and subset-collection refinements.

A partition container collection for tuple size k has the property that any k
independent sets can be split into two groups, each group fully inside one
container. The containers are unions of at most k base containers kept under
a size ceiling; one enumeration, `container_unions`, lists such unions for
the collection and for the k-coloring solver. Two refinement primitives
support the constructions: a Venn (membership-vector pigeonhole) split of a
subset family, and a matching-based split that trades a maximal matching
avoiding all subsets for part unions that each miss a fraction of the
vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import Graph, ParameterError, SizeLimitError, VertexSet
from .containers import (
    ContainerCollection,
    build_almost_regular_collection,
    build_regular_collection,
)

# candidate unions any `container_unions` enumeration (`materialize`, so
# `cover_split`'s fallback, and the coloring solver's candidates) tries
# before it raises SizeLimitError
UNION_BUDGET = 200000


class RefinementUnavailableError(ValueError):
    pass


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
    n - |M|/2^k. Empty parts are dropped."""
    if not subsets:
        raise ParameterError("need at least one subset")
    matching = greedy_matching(uncovered_edges(g, subsets))
    if not matching:
        raise RefinementUnavailableError("every edge lies inside some subset")
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


def container_unions(
    masks: Sequence[int], count: int, ceiling: float = math.inf, *, fewest: int = 1
) -> Iterator[int]:
    """The distinct unions of fewest..count of `masks`, each yielded once. A
    candidate is a combination of 1..count masks whose union has at most
    `ceiling` vertices (a union only grows, so no superset of a combination
    over the ceiling is tried), counted and extended whatever its size;
    more than `UNION_BUDGET` candidates raise SizeLimitError."""
    limit = UNION_BUDGET
    seen: set[int] = set()
    tried = 0
    stack = [(0, 0, 1)]  # (first index to add, union, size of its extensions)
    while stack:
        start, union, size = stack.pop()
        for i in range(start, len(masks)):
            grown = union | masks[i]
            if grown.bit_count() > ceiling:
                continue
            tried += 1
            if tried > limit:
                raise SizeLimitError(
                    "partition-container-materialization",
                    f"more than {limit} candidate unions",
                )
            if size >= fewest and grown not in seen:
                seen.add(grown)
                yield grown
            if size < count:
                stack.append((i + 1, grown, size + 1))


@lru_cache(maxsize=None)
def _splits(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The 2^k splits (A, B) of range(k), in the order of A's bit mask."""
    return tuple(
        (tuple(j for j in range(k) if split >> j & 1), tuple(j for j in range(k) if not split >> j & 1))
        for split in range(1 << k)
    )


@dataclass
class PartitionContainerCollection:
    """Unions of at most k base containers under the ceiling (1-epsilon)n.

    The full union collection is only materialized on demand, as int masks
    ordered by size, then by mask; `cover_split` produces an explicit split
    witness for a k-tuple of independent sets, from the materialized unions
    only when the located containers overflow."""

    base: ContainerCollection
    k: int
    epsilon: float
    n: int
    source: str  # "regular" | "almost-regular"
    low_degree: bool = False
    stats: dict = field(default_factory=dict)
    _materialized: tuple[int, ...] | None = None

    @property
    def size_ceiling(self) -> float:
        return (1.0 - self.epsilon) * self.n

    def materialize(self) -> tuple[int, ...]:
        """The distinct unions of 1..k base containers under the ceiling, as
        int masks ordered by size, then by mask; past `UNION_BUDGET`
        candidates, SizeLimitError."""
        if self._materialized is not None:
            return self._materialized
        masks = [c.mask for c in self.base.containers]
        ordered = sorted(container_unions(masks, self.k, self.size_ceiling))
        ordered.sort(key=int.bit_count)  # stable: by size, then by mask
        self._materialized = tuple(ordered)
        self.stats["container_count"] = len(self._materialized)
        return self._materialized

    def cover_split(
        self, independents: list[VertexSet]
    ) -> tuple[tuple[int, ...], VertexSet | None, VertexSet | None]:
        """Split witness for a tuple of independent sets.

        Returns (A, container_A, container_B) where A indexes the first
        group, the A-union is inside container_A and the complement-group
        union inside container_B; an empty group gets container None. The
        fast path unions the located base containers D_j = locate(I_j) over
        each of the 2^k splits; the fallback gives each side the first
        `materialize()` member covering its sets, within `UNION_BUDGET`."""
        if len(independents) != self.k:
            raise ParameterError(f"expected {self.k} sets, got {len(independents)}")
        if self.base.locate is None:
            raise RefinementUnavailableError("base collection has no locator")
        located = [self.base.locate(i).mask for i in independents]
        ceiling = self.size_ceiling
        for a, b in _splits(self.k):
            ua = ub = 0
            for j in a:
                ua |= located[j]
            for j in b:
                ub |= located[j]
            if ua.bit_count() <= ceiling and ub.bit_count() <= ceiling:
                return a, VertexSet(ua) if a else None, VertexSet(ub) if b else None
        # rare path: located containers overflow the ceiling jointly
        members = self.materialize()

        def cover(group: tuple[int, ...]) -> VertexSet | None:
            target = 0
            for j in group:
                target |= independents[j].mask
            return next((VertexSet(c) for c in members if not target & ~c), None)

        for a, b in _splits(self.k):
            ca = cover(a) if a else None
            cb = cover(b) if b else None
            if (ca is not None or not a) and (cb is not None or not b):
                return a, ca, cb
        raise RefinementUnavailableError("no split of the tuple fits any container pair")


def build_partition_collection_regular(
    g: Graph, k: int, *, force: bool = False
) -> PartitionContainerCollection:
    """Regular-graph construction: base containers at slack 2^-(k+1), unions
    of at most k of them under the ceiling (1 - 2^-(k+2))n. Below the degree
    floor k*2^(2k+3) the result is a low-degree flag unless forced."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not g.is_regular():
        raise ParameterError("graph is not regular; use the almost-regular builder")
    epsilon = 2.0 ** -(k + 2)
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
        return PartitionContainerCollection(
            base=base,
            k=k,
            epsilon=epsilon,
            n=g.n,
            source="regular",
            low_degree=True,
            stats={"mode": "low-degree-flag", "d0": d0},
        )
    eps_base = 2.0 ** -(k + 1)
    base = build_regular_collection(g, eps_base, force=True)
    return PartitionContainerCollection(
        base=base,
        k=k,
        epsilon=epsilon,
        n=g.n,
        source="regular",
        low_degree=False,
        stats={
            "base_container_count": len(base),
            "base_epsilon": eps_base,
            "d0": d0,
            "forced": d < d0,
        },
    )


def build_partition_collection_almost_regular(g: Graph, k: int) -> PartitionContainerCollection:
    """Almost-regular construction via the almost-regular container builder;
    size ceiling (1 - epsilon'')n with epsilon'' = 1/(C*2^(k+2)), C the
    measured max/average degree ratio (1 on a regular graph, where
    epsilon'' is the regular construction's 2^-(k+2))."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    base = build_almost_regular_collection(g)
    ratio = g.max_degree / g.average_degree
    return PartitionContainerCollection(
        base=base,
        k=k,
        epsilon=1.0 / (ratio * 2 ** (k + 2)),
        n=g.n,
        source="almost-regular",
        stats={"base_container_count": len(base), "degree_ratio": ratio},
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
    if coll._materialized is not None:
        report["container_count"] = len(coll._materialized)
    return report

