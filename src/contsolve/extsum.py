"""Sum-over-assignments of products of partial functions.

An instance is a variable universe X, subsets X_i of X, and a dense integer
table f_i over the assignments of each X_i. The quantity of interest is
sum over all 2^|X| assignments of the product of the extended tables. The
naive evaluator is the oracle; the disjoint, k=2, and k=3 evaluators compute
the same value without touching all of 2^|X| by factoring over the overlap
structure. All arithmetic is arbitrary-precision integers since values reach
2^n and downstream consumers rely on exact sign cancellation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from operator import mul

from .core import ParameterError, ParseError, PreconditionError, SizeLimitError

TABLE_ENTRY_CEILING = 1 << 24
# the naive sum visits 2^universe assignments
NAIVE_UNIVERSE_CEILING = 24
# the disjoint evaluator multiplies by 2^(free variables), so the universe
# bounds the size of the value
UNIVERSE_CEILING = 1 << 12


@dataclass(frozen=True)
class ExtSumInstance:
    """universe: variable count; subsets[i]: sorted variable indices;
    tables[i]: 2^len(subsets[i]) integers, indexed by the local bitmask whose
    bit j is the value of subsets[i][j]."""

    universe: int
    subsets: tuple[tuple[int, ...], ...]
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ParameterError("universe must be non-negative")
        if self.universe > UNIVERSE_CEILING:
            raise SizeLimitError("universe", f"{self.universe} variables exceeds ceiling")
        if len(self.subsets) != len(self.tables):
            raise ParameterError("one table per subset required")
        for xs, tab in zip(self.subsets, self.tables):
            if list(xs) != sorted(set(xs)):
                raise ParameterError(f"subset {xs} must be sorted and duplicate-free")
            if xs and (xs[0] < 0 or xs[-1] >= self.universe):
                raise ParameterError(f"subset {xs} outside universe of {self.universe}")
            if len(tab) != 1 << len(xs):
                raise ParameterError(
                    f"table has {len(tab)} entries, expected {1 << len(xs)}"
                )
            if len(tab) > TABLE_ENTRY_CEILING:
                raise SizeLimitError("table", f"{len(tab)} entries exceeds ceiling")

    @property
    def k(self) -> int:
        return len(self.subsets)

    def to_json(self) -> str:
        return json.dumps(
            {
                "universe": self.universe,
                "subsets": [list(xs) for xs in self.subsets],
                "tables": [list(t) for t in self.tables],
            }
        )

    @staticmethod
    def from_json(text: str | bytes) -> "ExtSumInstance":
        """Read `{"universe": int, "subsets": [[int]], "tables": [[int]]}`
        from text or from bytes, which `json.loads` decodes; malformed JSON,
        bytes it cannot decode, or any other shape raise ParseError, and
        values the constructor rejects raise ParameterError or
        SizeLimitError."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError("expected a JSON object")
        try:
            universe, subsets, tables = data["universe"], data["subsets"], data["tables"]
        except KeyError as exc:
            raise ParseError(f"missing key {exc}") from None
        if not _is_int(universe):
            raise ParseError("universe must be an integer")
        for name, rows in (("subsets", subsets), ("tables", tables)):
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(map(_is_int, row)) for row in rows
            ):
                raise ParseError(f"{name} must be a list of integer lists")
        return ExtSumInstance(
            universe=universe,
            subsets=tuple(map(tuple, subsets)),
            tables=tuple(map(tuple, tables)),
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def eval_naive(inst: ExtSumInstance) -> int:
    """Direct sum over all assignments; the oracle for every other evaluator."""
    if inst.universe > NAIVE_UNIVERSE_CEILING:
        raise SizeLimitError(
            "naive-eval", f"universe {inst.universe} exceeds {NAIVE_UNIVERSE_CEILING}"
        )
    # key each table by its entries' global bits, so the main loop is one
    # mask-and-lookup per subset instead of a per-variable bit gather
    universe = tuple(range(inst.universe))
    lookups = [
        (sum(1 << v for v in xs), dict(zip(_project(xs, universe), tab)))
        for xs, tab in zip(inst.subsets, inst.tables)
    ]
    total = 0
    for alpha in range(1 << inst.universe):
        prod = 1
        for mask, proj in lookups:
            prod *= proj[alpha & mask]
            if prod == 0:
                break
        total += prod
    return total


def eval_disjoint(inst: ExtSumInstance) -> int:
    """Pairwise-disjoint subsets factor: 2^(free vars) * prod of table sums."""
    seen = 0
    for xs in inst.subsets:
        for v in xs:
            if (seen >> v) & 1:
                raise PreconditionError("subsets are not pairwise disjoint")
            seen |= 1 << v
    free = inst.universe - seen.bit_count()
    prod = 1
    for tab in inst.tables:
        prod *= sum(tab)
    return (1 << free) * prod


def _project(variables: tuple[int, ...], onto: tuple[int, ...]) -> list[int]:
    """For every local assignment a of `variables`, its values packed in the
    order `onto`: bit i of entry a is a's value of onto[i], and a variable
    outside `onto` is dropped. The list doubles once per variable, each time
    by one map over the half already built."""
    pos = {v: j for j, v in enumerate(onto)}
    image = [0]
    for v in variables:
        if v in pos:
            # extend by a list: a map reading the list it extends never ends
            image += list(map((1 << pos[v]).__or__, image))
        else:
            image *= 2
    return image


def _marginalize(
    variables: tuple[int, ...], table: tuple[int, ...], onto: tuple[int, ...]
) -> list[int]:
    """Collapse a table onto the variables `onto`, summing over the rest:
    entry j is indexed by the packed bits of `onto` (bit i is onto[i])."""
    out = [0] * (1 << len(onto))
    for j, value in zip(_project(variables, onto), table):
        out[j] += value
    return out


def eval_k2(inst: ExtSumInstance, stats: dict | None = None) -> int:
    """Two subsets: marginalize both tables onto the shared variables, then
    sum the pointwise product. Work is one pass per table, 2^|X_1| + 2^|X_2|
    iterations in total (reported via stats['inner_iterations'])."""
    if inst.k != 2:
        raise ParameterError(f"eval_k2 needs exactly 2 subsets, got {inst.k}")
    x1, x2 = inst.subsets
    shared = tuple(sorted(set(x1) & set(x2)))
    m1 = _marginalize(x1, inst.tables[0], shared)
    m2 = _marginalize(x2, inst.tables[1], shared)
    if stats is not None:
        stats["inner_iterations"] = (1 << len(x1)) + (1 << len(x2))
    free = inst.universe - len(set(x1) | set(x2))
    return (1 << free) * sum(map(mul, m1, m2))


def eval_k3(inst: ExtSumInstance) -> int:
    """Three subsets via weighted tripartite triangles.

    Axes: the triple overlap (core), plus the three pairwise overlaps
    outside it. Each table is marginalized once onto core + pair + pair, the
    core in the low bits. For every core assignment the value is the sum over
    (a12, a13) of W1[a12][a13] times the dot product of the rows W2[a12] and
    W3[a13], each row a strided slice."""
    if inst.k != 3:
        raise ParameterError(f"eval_k3 needs exactly 3 subsets, got {inst.k}")
    s1, s2, s3 = (set(xs) for xs in inst.subsets)
    core = tuple(sorted(s1 & s2 & s3))
    p12 = tuple(sorted((s1 & s2) - s3))
    p13 = tuple(sorted((s1 & s3) - s2))
    p23 = tuple(sorted((s2 & s3) - s1))
    w1 = _marginalize(inst.subsets[0], inst.tables[0], core + p12 + p13)
    w2 = _marginalize(inst.subsets[1], inst.tables[1], core + p12 + p23)
    w3 = _marginalize(inst.subsets[2], inst.tables[2], core + p13 + p23)
    nc, n12, n13 = 1 << len(core), 1 << len(p12), 1 << len(p13)
    free = inst.universe - len(s1 | s2 | s3)
    total = 0
    for g in range(nc):
        rows2 = [w2[g + nc * a12 :: nc * n12] for a12 in range(n12)]
        for a13 in range(n13):
            row3 = w3[g + nc * a13 :: nc * n13]
            col1 = w1[g + nc * n12 * a13 : nc * n12 * (a13 + 1) : nc]
            total += sum(v1 * sum(map(mul, row2, row3)) for v1, row2 in zip(col1, rows2) if v1)
    return (1 << free) * total


def evaluate(inst: ExtSumInstance) -> int:
    """Dispatch: disjoint product (every instance with k <= 1), k=2, k=3, or
    the naive oracle."""
    try:
        return eval_disjoint(inst)
    except PreconditionError:
        pass
    if inst.k == 2:
        return eval_k2(inst)
    if inst.k == 3:
        return eval_k3(inst)
    return eval_naive(inst)


def reduce_refinement(inst: ExtSumInstance, parts: list[tuple[int, ...]]) -> ExtSumInstance:
    """Merge the subsets of each part into one subset over the part's variable
    union, table = pointwise product of the members' extensions. The value of
    the instance is unchanged."""
    seen: set[int] = set()
    for part in parts:
        for i in part:
            if i < 0 or i >= inst.k or i in seen:
                raise ParameterError("parts must partition the subset indices")
            seen.add(i)
    if len(seen) != inst.k:
        raise ParameterError("parts must partition the subset indices")
    new_subsets = []
    new_tables = []
    for part in parts:
        union = tuple(sorted(set().union(*(inst.subsets[i] for i in part))))
        if 1 << len(union) > TABLE_ENTRY_CEILING:
            raise SizeLimitError(
                "refinement-merge", f"part union of {len(union)} variables too large"
            )
        table = (1,)  # an empty part: the empty product over no variables
        for j, i in enumerate(part):
            tab = inst.tables[i]
            if inst.subsets[i] != union:
                tab = list(map(tab.__getitem__, _project(union, inst.subsets[i])))
            table = list(map(mul, table, tab)) if j else tab
        new_subsets.append(union)
        new_tables.append(tuple(table))
    return ExtSumInstance(inst.universe, tuple(new_subsets), tuple(new_tables))


def hyperclique_to_extsum(h, k: int) -> ExtSumInstance:
    """Encode k-hyperclique counting in an r-uniform hypergraph.

    k blocks of ceil(log2 n) variables each encode one vertex id; every
    r-subset of blocks gets an indicator table that is 1 exactly when the
    decoded ids are distinct, in range, and form an edge. The instance value
    is (number of k-hypercliques) * k!, since each clique appears once per
    ordering of its vertices over the blocks and invalid codes contribute 0."""
    if k <= h.r:
        raise ParameterError(f"k must exceed the uniformity {h.r}")
    n = h.n
    bits = max(1, (n - 1).bit_length())
    if 1 << (h.r * bits) > TABLE_ENTRY_CEILING:
        raise SizeLimitError(
            "hyperclique-table", f"2^{h.r * bits} entries per table exceeds ceiling"
        )
    # every r-subset of blocks gets the same table: 1 at each ordering of an
    # edge's ids
    table = [0] * (1 << (h.r * bits))
    for e in h.edges:
        for ids in permutations(e):
            table[sum(v << (pos * bits) for pos, v in enumerate(ids))] = 1
    subsets = tuple(
        tuple(b * bits + j for b in blocks for j in range(bits))
        for blocks in combinations(range(k), h.r)
    )
    return ExtSumInstance(k * bits, subsets, (tuple(table),) * len(subsets))


def hyperclique_count(h, k: int) -> int:
    """Number of k-hypercliques, by the naive sum over the encoding; refused
    before encoding when its k * bits variables exceed the naive ceiling."""
    bits = max(1, (h.n - 1).bit_length())
    if k * bits > NAIVE_UNIVERSE_CEILING:
        raise SizeLimitError(
            "naive-eval", f"universe {k * bits} exceeds {NAIVE_UNIVERSE_CEILING}"
        )
    inst = hyperclique_to_extsum(h, k)
    value = eval_naive(inst)
    fact = math.factorial(k)
    if value % fact:
        raise RuntimeError("encoding value not divisible by k!; this is a bug")
    return value // fact


# --- existence of small refinements for abstract subset collections --------

def refinement_witness(
    universe_n: int, subsets: list[frozenset[int] | set[int]], k: int
) -> tuple[int, ...] | None:
    """A k-part refinement with every part union != X exists iff some tuple
    (m_1..m_k) of universe elements has every subset missing at least one
    m_i (assign each subset to a part whose m_i it misses). The search over
    sorted tuples is exhaustive, so None is a proof of non-existence."""
    sets = [frozenset(s) for s in subsets]
    for tup in combinations_with_replacement(range(universe_n), k):
        if all(any(m not in s for m in tup) for s in sets):
            return tup
    return None


def refinement_from_witness(
    subsets: list[frozenset[int] | set[int]], witness: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Assign each subset index to the first witness element it misses."""
    parts: list[list[int]] = [[] for _ in witness]
    for idx, s in enumerate(subsets):
        for i, m in enumerate(witness):
            if m not in s:
                parts[i].append(idx)
                break
        else:
            raise ParameterError(f"subset {idx} misses no witness element")
    return [tuple(p) for p in parts if p]
