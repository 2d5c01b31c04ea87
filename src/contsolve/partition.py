"""Partition containers and subset-collection refinements.

A partition container collection for tuple size k has the property that any k
independent sets can be split into two groups, each group fully inside one
container. The containers are unions of at most k base containers kept under
a size ceiling. Two refinement primitives support the constructions: a Venn
(membership-vector pigeonhole) split of a subset family, and a matching-based
split that trades a maximal matching avoiding all subsets for part unions
that each miss a fraction of the vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .core import Graph, ParameterError, SizeLimitError, VertexSet
from .containers import (
    ContainerCollection,
    build_almost_regular_collection,
    build_regular_collection,
)


class RefinementUnavailableError(ValueError):
    pass


@dataclass(frozen=True)
class RefinementResult:
    """Partition of a subset collection's index set with exact part unions."""

    parts: tuple[tuple[tuple[int, ...], VertexSet], ...]  # (indices, union)
    gamma: float  # max part-union size / n
    matching_size: int = 0  # populated by matching_refinement


def _membership_code(v: int, subsets: list[VertexSet]) -> int:
    """Bit i set iff v is in subsets[i]."""
    code = 0
    for i, s in enumerate(subsets):
        if v in s:
            code |= 1 << i
    return code


def venn_refinement(universe_n: int, subsets: list[VertexSet]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split indices into (A, B) by the most frequent membership vector w:
    A = {i : w_i = 1}, B = {i : w_i = 0}. Every vertex in the winning class
    lies in all A-subsets and no B-subset, so the A-intersection has at least
    n/2^k vertices and the B-union at most (1 - 2^-k)n. Ties go to the
    smallest vector encoded with bit i as membership in subsets[i]."""
    if not subsets:
        raise ParameterError("need at least one subset")
    freq: dict[int, int] = {}
    for v in range(universe_n):
        code = _membership_code(v, subsets)
        freq[code] = freq.get(code, 0) + 1
    best = min(freq.items(), key=lambda kv: (-kv[1], kv[0]))[0] if freq else 0
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
    freq: dict[int, int] = {}
    for e0, _ in matching:
        code = _membership_code(e0, subsets)
        freq[code] = freq.get(code, 0) + 1
    best = min(freq.items(), key=lambda kv: (-kv[1], kv[0]))[0]
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
    gamma = max((len(u) for _, u in parts), default=0) / g.n if g.n else 0.0
    return RefinementResult(parts=tuple(parts), gamma=gamma, matching_size=len(matching))


@dataclass
class PartitionContainerCollection:
    """Unions of at most k base containers under the ceiling (1-epsilon)n.

    The full union collection is only materialized on demand; `cover_split`
    produces an explicit split witness for a k-tuple of independent sets."""

    base: ContainerCollection
    k: int
    epsilon: float
    n: int
    source: str  # "regular" | "almost-regular"
    low_degree: bool = False
    stats: dict = field(default_factory=dict)
    _materialized: tuple[VertexSet, ...] | None = None

    @property
    def size_ceiling(self) -> float:
        return (1.0 - self.epsilon) * self.n

    def materialize(self, limit: int = 200000) -> tuple[VertexSet, ...]:
        if self._materialized is not None:
            return self._materialized
        # candidates are counted, then kept as ints; many coincide, so a
        # VertexSet is built only for each distinct union
        unions: set[int] = set()
        masks = [c.mask for c in self.base.containers]
        count = 0
        ceiling = self.size_ceiling

        def extend(start: int, union_mask: int, depth: int):
            nonlocal count
            fits = [
                i for i in range(start, len(masks))
                if (union_mask | masks[i]).bit_count() <= ceiling
            ]
            count += len(fits)
            if count > limit:
                raise SizeLimitError(
                    "partition-container-materialization",
                    f"more than {limit} candidate unions",
                )
            if depth + 1 < self.k:
                for i in fits:
                    u = union_mask | masks[i]
                    unions.add(u)
                    extend(i + 1, u, depth + 1)
            else:
                unions.update([union_mask | masks[i] for i in fits])

        extend(0, 0, 0)
        ordered = sorted(unions)
        ordered.sort(key=int.bit_count)  # stable: by size, then by mask
        self._materialized = tuple(map(VertexSet, ordered))
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
        each of the 2^k splits; the fallback searches bounded combinations
        of base containers for each side."""
        if len(independents) != self.k:
            raise ParameterError(f"expected {self.k} sets, got {len(independents)}")
        if self.base.locate is None:
            raise RefinementUnavailableError("base collection has no locator")
        located = [self.base.locate(i) for i in independents]
        ceiling = self.size_ceiling
        k = self.k
        for split in range(1 << k):
            a = tuple(j for j in range(k) if (split >> j) & 1)
            b = tuple(j for j in range(k) if not (split >> j) & 1)
            ua = 0
            for j in a:
                ua |= located[j].mask
            ub = 0
            for j in b:
                ub |= located[j].mask
            if ua.bit_count() <= ceiling and ub.bit_count() <= ceiling:
                return (
                    a,
                    VertexSet(ua) if a else None,
                    VertexSet(ub) if b else None,
                )
        # rare path: located containers overflow the ceiling jointly; look
        # for any base-container combinations covering the two group unions
        for split in range(1 << k):
            a = tuple(j for j in range(k) if (split >> j) & 1)
            b = tuple(j for j in range(k) if not (split >> j) & 1)
            ca = self._covering_union(a, independents)
            if ca is None and a:
                continue
            cb = self._covering_union(b, independents)
            if cb is None and b:
                continue
            return a, ca, cb
        raise RefinementUnavailableError("no split of the tuple fits any container pair")

    def _covering_union(self, indices, independents) -> VertexSet | None:
        if not indices:
            return None
        target = 0
        for j in indices:
            target |= independents[j].mask
        ceiling = self.size_ceiling
        for j in range(1, self.k + 1):
            for combo in combinations(self.base.containers, j):
                u = 0
                for b in combo:
                    u |= b.mask
                if u.bit_count() <= ceiling and target & ~u == 0:
                    return VertexSet(u)
        return None


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


def build_partition_collection_almost_regular(
    g: Graph,
    k: int,
    degree_ratio: float,
    *,
    candidate_budget: int = 20000,
) -> PartitionContainerCollection:
    """Almost-regular construction via the degree-ratio container builder;
    size ceiling (1 - epsilon'')n with epsilon'' = 1/(degree_ratio*2^(k+2))."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    if degree_ratio < 1:
        raise ParameterError("degree ratio must be at least 1")
    base = build_almost_regular_collection(g, degree_ratio, candidate_budget=candidate_budget)
    epsilon = 1.0 / (degree_ratio * 2 ** (k + 2))
    return PartitionContainerCollection(
        base=base,
        k=k,
        epsilon=epsilon,
        n=g.n,
        source="almost-regular",
        stats={"base_container_count": len(base)},
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

