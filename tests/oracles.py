"""Independent brute-force reference implementations used as test oracles.

Everything here deliberately avoids the library's algorithmic machinery:
plain enumeration only, so agreement with the package is meaningful."""

import random
from itertools import combinations

from contsolve.core import CnfFormula, Graph, Hypergraph, SizeLimitError, VertexSet


def graph_fields(n: int, pairs: set[tuple[int, int]]) -> dict:
    """The fields a Graph on n vertices with the given (low, high) pairs
    must hold, each read straight off the pair set."""
    adj = tuple(
        tuple(sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}))
        for v in range(n)
    )
    return {
        "n": n,
        "m": len(pairs),
        "adj": adj,
        "adj_mask": tuple(sum(1 << w for w in a) for a in adj),
        "edges": tuple(sorted(pairs)),
    }


def pairing_regular_graph(n: int, d: int, seed: int) -> Graph:
    """The pairing model as `core.random_regular_graph` draws it, through
    `shuffle` and `randrange` and with a set of (low, high) pairs: shuffle
    the stubs, draw two stubs, redraw (up to 100 times) on a loop or a
    repeated pair, remove both, and start again on a shuffled list when
    stuck. Has no draw budget; None after 10,000 stuck attempts."""
    rng = random.Random(seed)
    for _ in range(10_000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        stuck = False
        while stubs and not stuck:
            for _ in range(100):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                u, v = stubs[i], stubs[j]
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in edges:
                    continue
                edges.add(key)
                for idx in sorted((i, j), reverse=True):
                    stubs[idx] = stubs[-1]
                    stubs.pop()
                break
            else:
                stuck = True
        if not stuck:
            return Graph(n, sorted(edges))
    return None


def all_independent_sets(g: Graph) -> list[int]:
    """Bitmasks of every independent set, by backtracking over vertices."""
    out = []

    def rec(start: int, current: int, blocked: int):
        out.append(current)
        for v in range(start, g.n):
            if not (blocked >> v) & 1:
                rec(v + 1, current | (1 << v), blocked | g.adj_mask[v])

    rec(0, 0, 0)
    return out


def is_counts_lowest_bit(g: Graph, domain: int) -> list[int]:
    """i(G[S]) for every S within the domain mask, indexed by the local
    bitmask over the domain's ascending vertices, by the lowest-vertex
    recurrence i(S) = i(S - v) + i(S minus v's closed neighborhood)."""
    order = [v for v in range(g.n) if (domain >> v) & 1]
    closed = [
        sum(1 << j for j, u in enumerate(order) if u == v or (g.adj_mask[v] >> u) & 1)
        for v in order
    ]
    counts = [1] * (1 << len(order))
    for m in range(1, 1 << len(order)):
        j = (m & -m).bit_length() - 1
        counts[m] = counts[m & (m - 1)] + counts[m & ~closed[j]]
    return counts


def collection_driver(walk, tau: int):
    """The uncut container driver. `walk(tau)` returns (the map from each
    fingerprint to its container, 0 subtrees cut) or raises SizeLimitError
    past its budget; tau is raised by half while it does. Returns (tau,
    map)."""
    while True:
        try:
            return tau, walk(tau)[0]
        except SizeLimitError:
            tau += max(1, tau // 2)


def max_independent_set_size(g: Graph) -> int:
    return max(m.bit_count() for m in all_independent_sets(g))


def max_weight_independent_set(g: Graph, weights: list[int]) -> int:
    best = 0
    for m in all_independent_sets(g):
        best = max(best, sum(weights[v] for v in VertexSet(m)))
    return best


def greedy_seed_by_key(g: Graph, weights: list[int], alive: int) -> int:
    """Min-degree greedy independent set inside `alive`, one vertex a pick:
    each pick is the alive vertex with the least (degree within `alive`,
    -weight, id) key, and removes itself and its neighbours from `alive`."""
    chosen = 0
    while alive:
        v = min(
            (u for u in range(g.n) if alive >> u & 1),
            key=lambda u: ((g.adj_mask[u] & alive).bit_count(), -weights[u], u),
        )
        chosen |= 1 << v
        alive &= ~(g.adj_mask[v] | 1 << v)
    return chosen


def hypergraph_independent_sets(h: Hypergraph) -> list[int]:
    out = []
    for m in range(1 << h.n):
        if all(em & ~m for em in h.edge_masks):
            out.append(m)
    return out


def _exclusions(h: Hypergraph, v: int, inside: int) -> int:
    """Vertices u such that some edge through v has every vertex except u in
    `inside`, read off the edge list."""
    out = 0
    for e in h.edges:
        if v in e:
            rest = [u for u in e if not (inside >> u) & 1]
            if len(rest) == 1:
                out |= 1 << rest[0]
    return out


def hypergraph_fingerprint(h: Hypergraph, independent: VertexSet, tau: int) -> VertexSet:
    """The engine's single-pass scan in vertex-id order: a vertex of I joins
    F when it would newly exclude at least tau vertices."""
    f = excluded = 0
    for v in independent:
        new = _exclusions(h, v, f | (1 << v))
        if (new & ~excluded).bit_count() >= tau:
            f |= 1 << v
            excluded |= new
    return VertexSet(f)


def hypergraph_container(h: Hypergraph, fp: VertexSet, tau: int) -> VertexSet:
    """F plus every vertex outside F and its exclusions that would newly
    exclude fewer than tau vertices on joining F."""
    f = fp.mask
    excluded = 0
    for v in fp:
        excluded |= _exclusions(h, v, f)
    out = f
    for v in range(h.n):
        if not ((f | excluded) >> v) & 1:
            if (_exclusions(h, v, f | (1 << v)) & ~excluded).bit_count() < tau:
                out |= 1 << v
    return VertexSet(out)


def scan_passed(h: Hypergraph, f: int, tau: int) -> int:
    """S(F): each vertex u below max F, outside F and F's exclusions, that
    the scan would have taken on reaching u, as it newly excludes at least
    tau vertices beyond what F's vertices below u exclude. No independent
    set whose fingerprint starts with F holds one. Scanned vertex by
    vertex, off the edge list."""
    excluded = 0
    for v in VertexSet(f):
        excluded |= _exclusions(h, v, f)
    out = 0
    for u in range(max(f.bit_length() - 1, 0)):
        if ((f | excluded) >> u) & 1:
            continue
        below = f & ((1 << u) - 1)
        before = 0
        for v in VertexSet(below):
            before |= _exclusions(h, v, below)
        if (_exclusions(h, u, below | (1 << u)) & ~before).bit_count() >= tau:
            out |= 1 << u
    return out


def brute_codegree(h: Hypergraph, i: int) -> int:
    best = 0
    for t in combinations(range(h.n), i):
        tset = set(t)
        best = max(best, sum(1 for e in h.edges if tset <= set(e)))
    return best


def count_ordered_covers(g: Graph, k: int, constraints: list[int] | None = None) -> int:
    """Ordered k-tuples of independent sets whose union is V; the j-th set
    optionally confined to a constraint mask."""
    isets = all_independent_sets(g)
    full = (1 << g.n) - 1
    pools = []
    for j in range(k):
        if constraints is None:
            pools.append(isets)
        else:
            pools.append([m for m in isets if m & ~constraints[j] == 0])

    reachable = [0] * (k + 1)  # union of everything pools j.. can still add
    for j in range(k - 1, -1, -1):
        u = 0
        for m in pools[j]:
            u |= m
        reachable[j] = reachable[j + 1] | u

    def rec(j: int, covered: int) -> int:
        if covered | reachable[j] != full:
            return 0
        if j == k:
            return 1
        return sum(rec(j + 1, covered | m) for m in pools[j])

    return rec(0, 0)


def is_k_colorable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in g.adj[v]):
                colors[v] = c
                if rec(v + 1):
                    return True
                colors[v] = -1
        return False

    return rec(0)


def assignment_literal_set(num_vars: int, assignment: dict[int, bool]) -> int:
    """Bitmask of the literal vertices a total assignment makes true:
    variable v (1-based) owns vertex 2(v-1) for x_v and 2(v-1)+1 for its
    negation."""
    mask = 0
    for v in range(1, num_vars + 1):
        mask |= 1 << (2 * (v - 1) + (not assignment[v]))
    return mask


def truth_table_sat(phi: CnfFormula) -> bool:
    for bits in range(1 << phi.num_vars):
        assignment = {v: bool((bits >> (v - 1)) & 1) for v in range(1, phi.num_vars + 1)}
        if phi.is_satisfied_by(assignment):
            return True
    return False


def truth_table_sat_bitmap(phi: CnfFormula) -> bool:
    """Full 2^n truth table packed into one big integer: bit `a` is set when
    assignment `a` (variable v reads bit v-1) satisfies the formula."""
    n = phi.num_vars
    size = 1 << n
    var_bit = []
    for v in range(n):
        block = ((1 << (1 << v)) - 1) << (1 << v)  # 2^v zeros then 2^v ones
        pattern = block
        width = 1 << (v + 1)
        while width < size:
            pattern |= pattern << width
            width <<= 1
        var_bit.append(pattern & ((1 << size) - 1))
    table = (1 << size) - 1
    full = table
    for clause in phi.clauses:
        sat = 0
        for lit in clause:
            bits = var_bit[abs(lit) - 1]
            sat |= bits if lit > 0 else (full & ~bits)
        table &= sat
        if not table:
            return False
    return table != 0


def count_hypercliques(h: Hypergraph, k: int) -> int:
    edge_set = set(h.edges)
    count = 0
    for combo in combinations(range(h.n), k):
        if all(sub in edge_set for sub in combinations(combo, h.r)):
            count += 1
    return count


def greedy_structure_rescan(h: Hypergraph, d: int) -> tuple[list[int], int]:
    """The greedy D-edge extraction that rescans from vertex 0 after every
    pick: the lowest non-retired vertex with d residual edges moves the first
    d of them and retires, then every vertex of output degree above r*d
    retires. Returns the sorted moved edge indices and the retired mask."""
    retired = 0
    moved: list[int] = []
    degree = [0] * h.n
    while True:
        for v in range(h.n):
            residual = [
                i for i, e in enumerate(h.edges)
                if v in e and i not in moved and not h.edge_masks[i] & retired
            ]
            if not retired >> v & 1 and len(residual) >= d:
                break
        else:
            return sorted(moved), retired
        for i in residual[:d]:
            moved.append(i)
            for u in h.edges[i]:
                degree[u] += 1
        retired |= 1 << v
        retired |= sum(1 << u for u in range(h.n) if degree[u] > h.r * d)


def propagate_one_unit_per_pass(clauses, forced: dict[int, bool]):
    """Unit propagation that applies one unit per full pass over the
    clauses, the first unit clause the pass meets: simplified clauses as
    new lists, or None when a clause is left empty. `forced` is extended in
    place."""
    while True:
        new_clauses: list[list[int]] = []
        unit: int | None = None
        for clause in clauses:
            reduced = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in forced:
                    if (lit > 0) == forced[var]:
                        satisfied = True
                        break
                else:
                    reduced.append(lit)
            if satisfied:
                continue
            if not reduced:
                return None
            if len(reduced) == 1 and unit is None:
                unit = reduced[0]
            new_clauses.append(reduced)
        if unit is None:
            return new_clauses
        forced[abs(unit)] = unit > 0
        clauses = new_clauses
