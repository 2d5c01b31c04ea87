"""Core data types: graphs, uniform hypergraphs, CNF formulas, bitmask vertex sets.

All types are immutable after construction and safe to share between threads.
Vertex ids are 0-indexed internally; the DIMACS boundary is 1-indexed.

The constructors `Graph`, `Hypergraph` and `CnfFormula` check what a direct
caller passes. Parts already checked are not checked again: the DIMACS
parsers, `random_regular_graph` and `random_ksat_formula` fill their graphs
and formulas through `_fill_graph` and `_fill_cnf`, and `sat` its literal
hypergraphs through `_fill_hypergraph`; `random_graph` builds through the
checked `Graph` constructor. The parsers take text or bytes, and decode
bytes as strict UTF-8, so an undecodable byte is a ParseError at its line.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections import Counter
from itertools import chain, combinations, repeat

# One byte budget for what a graph or a formula may allocate. The DIMACS
# parsers check it against the counts the header declares, and the
# generators against their arguments, before any list is built. Worst
# cases, for n vertices or variables and m edges or clauses:
# - a Graph holds one adjacency bitmask of up to n bits per vertex, n*n/8
#   bytes in all;
# - a formula's literal hypergraph holds one bitmask of up to 2n bits per
#   clause, m*n/4 bytes in all;
# - each vertex, literal, edge and clause costs up to ITEM_BYTES more in
#   tuples, ints and list, set and dict slots, parser and constructor
#   included (tracemalloc, 64-bit CPython: 310-500 bytes per edge or per
#   clause of width 3-5; wider clauses cost more, in proportion to the text).
# At 256 MiB a graph has at most 44,338 vertices (44,338^2/8 + 44,338*512 =
# 268.4e6 bytes) and fewer than 524,288 edges, and a formula at most 262,144
# variables; at 10,000 variables it has at most 85,722 clauses.
MEMORY_BUDGET_BYTES = 1 << 28
ITEM_BYTES = 512


# Values `random_regular_graph` may draw, shuffles and stub pairs of every
# attempt together, before it refuses. The dense rejection loop draws 3-5
# million a second (2-CPU x86-64 host, CPython 3.11), so a refusal comes
# within a second. One attempt at 2,048 vertices of degree 508, near the
# byte budget's edge limit, draws 2.24 million. Of the graphs the tests,
# perfbench (seeds 0-10) and CI generate, (39, 26) at seed 0 needs the
# most, 121,508 draws; no perfbench graph needs more than 16,346.
REGULAR_DRAW_BUDGET = 2_500_000


def graph_bytes(n: int, m: int) -> int:
    """Worst-case bytes of a graph with n vertices and m edges."""
    return n * n // 8 + (n + m) * ITEM_BYTES


def formula_bytes(n: int, m: int) -> int:
    """Worst-case bytes of a formula with n variables and m clauses, its
    literal hypergraph included."""
    return m * n // 4 + (2 * n + m) * ITEM_BYTES


def _over_budget(counts: str, need: int) -> str:
    return f"{counts} may need {need:,} bytes, over the budget of {MEMORY_BUDGET_BYTES:,}"


# the unsigned array typecode of each field width in bytes
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


def pack_fields(values, itemsize: int) -> int:
    """`values` as one Python int of unsigned `itemsize`-byte fields, value i
    at bit 8 * itemsize * i; each value must fit its field, and `itemsize`
    is 1, 2, 4 or 8."""
    fields = array(_TYPECODES[itemsize], values)
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields, "little")


def unpack_fields(data: bytes, itemsize: int) -> array:
    """The unsigned `itemsize`-byte fields of little-endian `data`, in order:
    the read-back of a Python int packed as fixed-width fields, field i at
    bit 8 * itemsize * i, after `int.to_bytes(len, "little")`. `itemsize` is
    1, 2, 4 or 8."""
    fields = array(_TYPECODES[itemsize], data)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParameterError(ValueError):
    """Arguments outside an operation's valid range."""


class PreconditionError(ValueError):
    """A documented precondition does not hold for the given input."""


class SizeLimitError(RuntimeError):
    """A configured resource ceiling was exceeded; names the failing stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class VertexSet:
    """Immutable vertex set backed by an arbitrary-width bitmask."""

    __slots__ = ("mask", "cardinality")

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ParameterError("bitmask must be non-negative")
        _set_mask(self, mask)
        _set_cardinality(self, mask.bit_count())

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, vertices) -> "VertexSet":
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return cls(mask)

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, v: int) -> bool:
        return (self.mask >> v) & 1 == 1

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}})"


# slot setters that bypass the immutability guard; calling them directly is
# faster than object.__setattr__, and VertexSet is built in bulk
_set_mask = VertexSet.mask.__set__
_set_cardinality = VertexSet.cardinality.__set__


class Graph:
    """Simple undirected graph with sorted adjacency lists and adjacency bitmasks."""

    __slots__ = ("n", "m", "adj", "adj_mask", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ParameterError("vertex count must be non-negative")
        masks = [0] * n
        norm_edges = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ParameterError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            norm_edges.append((u, v) if u < v else (v, u))
        _fill_graph(self, n, masks, norm_edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def is_regular(self) -> bool:
        return self.n == 0 or all(len(a) == len(self.adj[0]) for a in self.adj)

    def is_independent(self, vertices: int) -> bool:
        mask = vertices
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            if self.adj_mask[v] & vertices:
                return False
            mask ^= low
        return True

    def induced_edge_count(self, vertices: int) -> int:
        total = 0
        mask = vertices
        while mask:
            low = mask & -mask
            total += (self.adj_mask[low.bit_length() - 1] & vertices).bit_count()
            mask ^= low
        return total // 2

    def to_dimacs(self) -> str:
        lines = [f"p edge {self.n} {self.m}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))


def _fill_graph(g: Graph, n: int, masks: list, edges: list) -> Graph:
    """Set and return a Graph's fields from checked parts: each vertex's
    adjacency mask and the edges as (low, high) pairs in any order. Sorts
    `edges` in place and builds the adjacency lists from them in one pass:
    in sorted order a vertex meets its lower neighbours, then its higher
    ones, each ascending."""
    edges.sort()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "m", len(edges))
    object.__setattr__(g, "adj", tuple(map(tuple, adj)))
    object.__setattr__(g, "adj_mask", tuple(masks))
    object.__setattr__(g, "edges", tuple(edges))
    return g


class Hypergraph:
    """r-uniform hypergraph. Edges are sorted r-tuples of distinct vertices.

    Repeated edges are permitted (they arise from repeated CNF clauses) and
    count with multiplicity in co-degree queries.
    """

    __slots__ = ("n", "r", "edges", "edge_masks")

    def __init__(self, n: int, r: int, edges):
        if n < 0:
            raise ParameterError("vertex count must be non-negative")
        if r < 1:
            raise ParameterError("uniformity must be at least 1")
        norm = []
        masks = []
        for e in edges:
            e = tuple(sorted(e))
            # a repeated vertex is named before a vertex out of range
            if len(e) != r or len(set(e)) != r:
                raise ParameterError(f"edge {e} does not have exactly {r} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise ParameterError(f"vertex id out of range in edge {e}")
            mask = 0
            for v in e:
                mask |= 1 << v
            norm.append(e)
            masks.append(mask)
        _fill_hypergraph(self, n, r, norm, masks)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def is_independent(self, vertices: int) -> bool:
        """True when the bitmask spans no edge entirely."""
        return all(em & vertices != em for em in self.edge_masks)


def _fill_hypergraph(h: Hypergraph, n: int, r: int, edges: list, masks: list) -> None:
    """Set a Hypergraph's fields from checked parts: its edges as sorted
    r-tuples of distinct vertices below n, and their masks, both taken as
    they are."""
    object.__setattr__(h, "n", n)
    object.__setattr__(h, "r", r)
    object.__setattr__(h, "edges", tuple(edges))
    object.__setattr__(h, "edge_masks", tuple(masks))


def max_codegree(h: Hypergraph, i: int) -> int:
    """Largest number of edges sharing a common i-subset of vertices.

    Counts i-subsets inside each edge instead of enumerating all i-subsets
    of the vertex set.
    """
    if not 1 <= i <= h.r:
        raise ParameterError(f"subset size {i} out of range 1..{h.r}")
    counts = Counter(chain.from_iterable(map(combinations, h.edges, repeat(i))))
    return max(counts.values(), default=0)


class CnfFormula:
    """k-CNF with signed-literal clauses; literal v means x_v, -v means not x_v (1-based).

    The constructor refuses an empty clause, a literal out of range and a
    variable twice in a clause; `parse_dimacs_cnf` and `random_ksat_formula`
    fill theirs through `_fill_cnf` instead."""

    __slots__ = ("num_vars", "clauses", "k")

    def __init__(self, num_vars: int, clauses):
        if num_vars < 0:
            raise ParameterError("variable count must be non-negative")
        norm = []
        for clause in clauses:
            clause = tuple(clause)
            if not clause:
                raise ParameterError("empty clause")
            vars_seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > num_vars:
                    raise ParameterError(f"literal {lit} out of range")
                if var in vars_seen:
                    raise ParameterError(f"variable {var} occurs twice in clause {clause}")
                vars_seen.add(var)
            norm.append(clause)
        _fill_cnf(self, num_vars, norm)

    def __setattr__(self, name, value):
        raise AttributeError("CnfFormula is immutable")

    def is_satisfied_by(self, assignment) -> bool:
        """assignment maps 1-based variable ids to bools; missing vars default to False."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, c)) + " 0" for c in self.clauses)
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, CnfFormula)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )


def _fill_cnf(phi: CnfFormula, n: int, clauses: list) -> CnfFormula:
    """Set and return a CnfFormula's fields from checked parts: clauses of
    distinct variables in 1..n, each a non-empty list or tuple of literals,
    stored as tuples."""
    clauses = tuple(map(tuple, clauses))
    object.__setattr__(phi, "num_vars", n)
    object.__setattr__(phi, "clauses", clauses)
    object.__setattr__(phi, "k", max(map(len, clauses), default=0))
    return phi


def _decode_lines(text) -> list[str]:
    if isinstance(text, bytes):
        try:
            # one leading UTF-8 byte-order mark is decoded away
            text = text.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # exc.start indexes exc.object, the bytes after any mark
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ParseError("input is not valid UTF-8", line) from None
    return text.splitlines()


# each DIMACS format's header word: the bytes its counts may need, and the
# nouns for them
_FORMATS = {"edge": (graph_bytes, "vertices", "edges"), "cnf": (formula_bytes, "variables", "clauses")}


def _read_header(parts: list[str], line: str, lineno: int, fmt: str) -> tuple[int, int]:
    """The counts n and m of the header `p <fmt> n m`, split into `parts`:
    refused with ParseError at `lineno` when malformed, negative, or past
    `MEMORY_BUDGET_BYTES`."""
    if len(parts) != 4 or parts[1] != fmt:
        raise ParseError(f"malformed header {line!r}", lineno)
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"malformed header {line!r}", lineno) from None
    if n < 0 or m < 0:
        raise ParseError("negative count in header", lineno)
    size, items, groups = _FORMATS[fmt]
    need = size(n, m)
    if need > MEMORY_BUDGET_BYTES:
        raise ParseError(_over_budget(f"{n} {items} and {m} {groups}", need), lineno)
    return n, m


def parse_dimacs_graph(text) -> Graph:
    """Parse DIMACS edge format: `p edge n m` header, `e u v` lines, 1-indexed.

    A well-formed edge line after the header costs one split, two int()
    calls and one combined test for range, self-loop, duplicate and the
    header's edge count; only a line that fails the test is looked at again,
    to name its fault."""
    n = m = None
    masks = ()
    edges = []
    for lineno, raw in enumerate(_decode_lines(text), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(f"malformed edge line {raw.strip()!r}", lineno) from None
            if 0 <= u < n and 0 <= v < n and u != v and not masks[u] >> v & 1 and len(edges) < m:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                edges.append((u, v) if u < v else (v, u))
                continue
            if not (0 <= u < n and 0 <= v < n):
                message = f"vertex id out of range in edge ({u + 1}, {v + 1})"
            elif u == v:
                message = f"self-loop at vertex {u + 1}"
            elif masks[u] >> v & 1:
                message = f"duplicate edge ({u + 1}, {v + 1})"
            else:
                message = f"more edges than the {m} the header declares"
            raise ParseError(message, lineno)
        if not parts or parts[0].startswith("c"):
            continue
        line = raw.strip()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            n, m = _read_header(parts, line, lineno, "edge")
            masks = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before header", lineno)
            raise ParseError(f"malformed edge line {line!r}", lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return _fill_graph(object.__new__(Graph), n, masks, edges)


def parse_dimacs_cnf(text) -> CnfFormula:
    """Parse DIMACS CNF; clauses are zero-terminated and may span lines. A
    line starting with `%` ends the input, as in SATLIB files, which close
    with a `%` line and then `0`.

    A finished clause costs one set test over its variables; only a clause
    that fails it is looked at again, to name a tautology (on the first
    literal whose negation is in the clause) before a repeated literal. The
    formula is filled from the checked clauses, not re-checked."""
    n = m = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(_decode_lines(text), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            n, m = _read_header(parts, line, lineno, "cnf")
            continue
        if n is None:
            raise ParseError("clause line before header", lineno)
        for tok in parts:
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal token {tok!r}", lineno) from None
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", lineno)
                if len(set(map(abs, current))) != len(current):
                    lits = set(current)
                    for x in current:
                        if -x in lits:
                            raise ParseError(f"tautological clause on variable {abs(x)}", lineno)
                    raise ParseError("repeated literal in clause", lineno)
                if len(clauses) == m:
                    raise ParseError(f"more clauses than the {m} the header declares", lineno)
                clauses.append(current)
                current = []
            else:
                if abs(lit) > n:
                    raise ParseError(f"literal {lit} out of range", lineno)
                current.append(lit)
    if n is None:
        raise ParseError("missing header")
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != m:
        raise ParseError(f"header declares {m} clauses, found {len(clauses)}")
    return _fill_cnf(object.__new__(CnfFormula), n, clauses)


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via the pairing model; deterministic
    for a fixed seed.

    Its draws equal those of `random.Random(seed).shuffle(stubs)` and of
    `randrange(len(stubs))` for each stub of a pair, so each seed gives the
    graph those calls give: a value below a size is drawn as CPython's
    `Random._randbelow_with_getrandbits` draws it, `getrandbits` of the
    size's bit length, again while it is not below the size. Past
    `REGULAR_DRAW_BUDGET` draws it raises `SizeLimitError` (stage
    "random-regular-graph")."""
    if d >= n or d < 0:
        raise ParameterError(f"degree {d} must satisfy 0 <= d < n = {n}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d = {n * d} must be even")
    need = graph_bytes(n, n * d // 2)
    if need > MEMORY_BUDGET_BYTES:
        raise SizeLimitError("memory", _over_budget(f"{n} vertices of degree {d}", need))
    getrandbits = random.Random(seed).getrandbits
    draws = 0
    # pairing model with local rejection: draw two random stubs, redraw on a
    # loop or multi-edge, and restart the attempt only when stuck near the
    # end (a full restart per conflict is hopeless for dense cases)
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        size = len(stubs)
        draws += max(size - 1, 0)
        # the shuffle, top index first
        for i in range(size - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        masks = [0] * n
        edges = []
        # stubs[:size] are the unpaired stubs
        while size:
            if draws > REGULAR_DRAW_BUDGET:
                raise SizeLimitError(
                    "random-regular-graph",
                    f"no simple {d}-regular graph on {n} vertices within "
                    f"{REGULAR_DRAW_BUDGET:,} draws",
                )
            k = size.bit_length()
            for tries in range(100):
                i = getrandbits(k)
                while i >= size:
                    i = getrandbits(k)
                j = getrandbits(k)
                while j >= size:
                    j = getrandbits(k)
                u = stubs[i]
                v = stubs[j]
                if u == v or masks[u] >> v & 1:
                    continue
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                edges.append((u, v) if u < v else (v, u))
                # swap-pop, the higher index first
                if i < j:
                    i, j = j, i
                size -= 1
                stubs[i] = stubs[size]
                size -= 1
                stubs[j] = stubs[size]
                break
            else:
                draws += 200
                break
            draws += 2 * tries + 2
        else:
            return _fill_graph(object.__new__(Graph), n, masks, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if not 0 <= p <= 1:
        raise ParameterError(f"edge probability {p} must be in [0, 1]")
    need = graph_bytes(n, math.ceil(p * (n * (n - 1) // 2)))
    if need > MEMORY_BUDGET_BYTES:
        raise SizeLimitError("memory", _over_budget(f"{n} vertices at edge probability {p}", need))
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_ksat_formula(n: int, m: int, k: int, seed: int) -> CnfFormula:
    """Random k-CNF: each clause has k distinct variables with random signs,
    filled into the formula as drawn."""
    if not 1 <= k <= n:
        raise ParameterError(f"clause width {k} must be between 1 and the variable count {n}")
    if m < 0:
        raise ParameterError(f"clause count {m} must be non-negative")
    need = formula_bytes(n, m)
    if need > MEMORY_BUDGET_BYTES:
        raise SizeLimitError("memory", _over_budget(f"{n} variables and {m} clauses", need))
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vars_ = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return _fill_cnf(object.__new__(CnfFormula), n, clauses)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
