"""Seeded instance families and the checked operations run on them.

Each workload turns a seed into a list of instances (`generate`, part of
set-up) and runs one instance at a time (`run`), returning one `Outcome` per
operation. The solver workloads run the base path and the container path on
the same instance and check the answers against each other and, where one
exists, against an oracle computed here; cli-ingest runs one `cli.run` call
per instance and checks its exit code and report.

Library functions are always looked up as module attributes at call time
(`mis.mis_base(g)`, never a bound local), so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from contsolve import cli, coloring, core, extsum, mis, sat

FAILURE_TYPES = ("SizeLimitError", "PreconditionError", "other", "mismatch")


@dataclass
class Outcome:
    path: str  # "base" | "containers"
    seconds: float
    failure: str | None  # one of FAILURE_TYPES, or None when the operation passed its checks


def failure_type(exc: Exception) -> str:
    if isinstance(exc, core.SizeLimitError):
        return "SizeLimitError"
    if isinstance(exc, core.PreconditionError):
        return "PreconditionError"
    return "other"


def _timed(call):
    """(seconds, result, failure) of one call; an exception is a failure."""
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - boundary: every error is counted, the run goes on
        return perf_counter() - start, None, failure_type(exc)
    return perf_counter() - start, result, None


def _pair(index: int, base_call, containers_call):
    """Run both paths on one instance; which goes first alternates."""
    order = [("base", base_call), ("containers", containers_call)]
    if index % 2:
        order.reverse()
    done = {path: _timed(call) for path, call in order}
    return done["base"], done["containers"]


def _outcomes(base, containers, base_ok, containers_ok, agree):
    """Outcomes of a base/containers pair. `*_ok(result)` checks one answer
    on its own, `agree(b, c)` the two answers against each other; a
    disagreement is charged to the container path, whose answer is the one
    under test."""
    (bs, br, bf), (cs, cr, cf) = base, containers
    if bf is None and not base_ok(br):
        bf = "mismatch"
    if cf is None and not containers_ok(cr):
        cf = "mismatch"
    if bf is None and cf is None and not agree(br, cr):
        cf = "mismatch"
    return [Outcome("base", bs, bf), Outcome("containers", cs, cf)]


class Mis:
    """Half dense random regular graphs with forced regular containers, half
    G(n, p) graphs through the almost-regular (r=2 hypergraph) builder."""

    name = "mis"
    # instances per second of --seconds; sized so that the seed-state
    # library needs most of the run for the list
    rate = 18.0
    grid = (
        ("regular", 20, 8),
        ("gnp", 20, 0.3),
        ("regular", 22, 10),
        ("gnp", 22, 0.4),
        ("regular", 24, 12),
        ("gnp", 24, 0.5),
    )
    smoke_grid = (("regular", 10, 4), ("gnp", 10, 0.4))

    def __init__(self, smoke: bool = False):
        self.cells = self.smoke_grid if smoke else self.grid

    def generate(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        out = []
        for i in range(count):
            kind, n, x = self.cells[i % len(self.cells)]
            s = rng.getrandbits(32)
            if kind == "regular":
                g = core.random_regular_graph(n, x, s)
                config = mis.MisConfig(mode="containers", epsilon=0.45, force=True)
            else:
                g = core.random_graph(n, x, s)
                config = mis.MisConfig(mode="containers")
            out.append((g, config))
        return out

    def run(self, inst, index: int) -> list[Outcome]:
        g, config = inst

        def ok(r):
            return g.is_independent(r.best.mask) and r.size == r.best.cardinality == r.weight

        return _outcomes(
            *_pair(index, lambda: mis.mis_base(g), lambda: mis.mis_containers(g, config)),
            ok,
            ok,
            lambda b, c: (b.size, b.weight) == (c.size, c.weight),
        )


def chromatic_number(g: core.Graph) -> int:
    """Exact chromatic number by DSATUR branch and bound; the oracle for
    the coloring decisions, independent of the library's counting."""
    n = g.n
    colors = [-1] * n
    best = n

    def rec(colored: int, used: int):
        nonlocal best
        if used >= best:
            return
        if colored == n:
            best = used
            return
        pick, pick_key = -1, None
        for v in range(n):
            if colors[v] < 0:
                sat_deg = len({colors[u] for u in g.adj[v] if colors[u] >= 0})
                key = (sat_deg, len(g.adj[v]))
                if pick_key is None or key > pick_key:
                    pick, pick_key = v, key
        taken = {colors[u] for u in g.adj[pick]}
        for c in range(used + 1):
            if c not in taken and (c < used or used + 1 < best):
                colors[pick] = c
                rec(colored + 1, max(used, c + 1))
                colors[pick] = -1

    rec(0, 0)
    return best


class ColorDense:
    """Dense G(n, p) graphs with k one below and at the chromatic number, so
    that half the decisions are negative."""

    name = "color-dense"
    rate = 24.0
    grid = ((14, 0.5), (14, 0.6), (14, 0.7))
    smoke_grid = ((8, 0.6),)
    base_config = coloring.ColoringConfig(mode="baseline")
    containers_config = coloring.ColoringConfig(mode="containers", degree_ratio=3.0)

    def __init__(self, smoke: bool = False):
        self.cells = self.smoke_grid if smoke else self.grid

    def generate(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        out = []
        for i in range(count):
            n, p = self.cells[i % len(self.cells)]
            g = core.random_graph(n, p, rng.getrandbits(32))
            chi = chromatic_number(g)
            # alternate below / at chi over whole grid cycles
            k = chi - 1 if (i // len(self.cells)) % 2 == 0 and chi > 1 else chi
            out.append((g, k, chi))
        return out

    def run(self, inst, index: int) -> list[Outcome]:
        g, k, chi = inst
        expected = k >= chi
        return _outcomes(
            *_pair(
                index,
                lambda: coloring.solve_kcoloring(g, k, self.base_config),
                lambda: coloring.solve_kcoloring(g, k, self.containers_config),
            ),
            lambda r: r.colorable == expected,
            lambda r: r.colorable == expected,
            lambda b, c: b.colorable == c.colorable,
        )


class KsatDense:
    """Random 3-CNF at a mixed SAT/UNSAT density and at an UNSAT-heavy one.
    At these sizes the finite-size threshold sits near 6 clauses per
    variable, above the asymptotic 4.27."""

    name = "ksat-dense"
    rate = 14.0
    grid = ((7, 49), (7, 56))
    smoke_grid = ((6, 36), (6, 48))
    params = sat.StructureParams(D=4, C=40.0, epsilon=0.3)

    def __init__(self, smoke: bool = False):
        self.cells = self.smoke_grid if smoke else self.grid

    def generate(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        return [
            core.random_ksat_formula(n, m, 3, rng.getrandbits(32))
            for n, m in (self.cells[i % len(self.cells)] for i in range(count))
        ]

    def run(self, phi, index: int) -> list[Outcome]:
        config = sat.SatConfig(mode="containers")
        return _outcomes(
            *_pair(
                index,
                lambda: sat.dpll(phi),
                lambda: sat.solve_ksat_dense(phi, self.params, config),
            ),
            lambda r: not r[0] or phi.is_satisfied_by(r[1]),
            lambda r: not r.satisfiable or phi.is_satisfied_by(r.model),
            lambda b, c: b[0] == c.satisfiable,
        )


def planted_cnf(rng: random.Random, n: int, m: int, k: int) -> core.CnfFormula:
    """Random k-CNF satisfied by a hidden assignment, so the answer is known."""
    truth = [rng.random() < 0.5 for _ in range(n + 1)]
    clauses = []
    while len(clauses) < m:
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        if any((lit > 0) == truth[abs(lit)] for lit in clause):
            clauses.append(clause)
    return core.CnfFormula(n, clauses)


def random_extsum(rng: random.Random, universe: int, k: int, width: int) -> extsum.ExtSumInstance:
    subsets = tuple(tuple(sorted(rng.sample(range(universe), width))) for _ in range(k))
    tables = tuple(tuple(rng.randint(-2, 3) for _ in range(1 << width)) for _ in range(k))
    return extsum.ExtSumInstance(universe, subsets, tables)


def relabeled_circulant(n: int, rng: random.Random) -> core.Graph:
    """4-regular graph: the circulant C_n(1, 2) under a random relabeling.
    Linear-time, so thousands of edges cost little set-up time."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + j) % n]) for i in range(n) for j in (1, 2)]
    return core.Graph(n, edges)


class CliIngest:
    """A fixed cycle of `cli.run` calls on files written during set-up."""

    name = "cli-ingest"
    rate = 33.0
    # containers: large low-degree regular graph (the builder flags it
    # low-degree, so DIMACS parsing is the work); partition: small regular
    # graph, forced and materialized; sat: sparse planted 5-CNF, where no
    # structure is found and DPLL runs; extsum: k=2 and k=3 instances.
    # Sizes are drawn from ranges, so that call times spread smoothly
    # instead of piling up at a few values.
    sizes = {
        "containers": (600, 1000),  # vertices; 4-regular, so 2n edges
        "partition": ((12, 14, 16), 4),  # vertices, degree
        "sat": (30, 50),  # variables; 3 clauses of width 5 per variable
        "extsum": (10, 13),  # universe; subsets of 2/3 and 3/5 of it
    }
    smoke_sizes = {"containers": (30, 40), "partition": ((10,), 4), "sat": (10, 12), "extsum": (7, 8)}
    # Per cycle, from fastest to slowest kind: 2 extsum, 4 sat, 1 partition,
    # 3 containers. Every p50 and p90 (base calls, container calls, all
    # calls) then falls inside the calls of one kind, away from the gaps
    # between kinds, which keeps them steady from run to run.
    cycle = (
        "containers", "sat", "extsum-k2", "sat", "partition",
        "containers", "sat", "extsum-k3", "sat", "containers",
    )
    container_kinds = ("containers", "partition")

    def __init__(self, smoke: bool = False):
        self.sizes = self.smoke_sizes if smoke else self.sizes
        self.report_bytes: list[int] = []

    def generate(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for i in range(count):
            kind = self.cycle[i % len(self.cycle)]
            sub = random.Random(rng.getrandbits(32))
            path = workdir / f"input-{i}"
            if kind in ("containers", "partition"):
                if kind == "containers":
                    g = relabeled_circulant(sub.randint(*self.sizes["containers"]), sub)
                    argv = ["containers", "--input", str(path)]
                else:
                    sizes, d = self.sizes["partition"]
                    g = core.random_regular_graph(sub.choice(sizes), d, sub.getrandbits(32))
                    argv = ["partition-containers", "--input", str(path), "--k", "2", "--force", "--materialize"]
                path.write_text(g.to_dimacs())
                out.append((kind, argv, {"n": g.n, "m": g.m}))
            elif kind == "sat":
                n = sub.randint(*self.sizes["sat"])
                phi = planted_cnf(sub, n, 3 * n, 5)
                path.write_text(phi.to_dimacs())
                out.append((kind, ["sat", "--input", str(path)], phi))
            else:
                universe = sub.randint(*self.sizes["extsum"])
                k = 2 if kind == "extsum-k2" else 3
                width = 2 * universe // 3 if k == 2 else 3 * universe // 5
                inst = random_extsum(sub, universe, k, width)
                path.write_text(inst.to_json())
                out.append((kind, ["extsum", "eval", "--input", str(path), "--algo", "auto"], extsum.eval_naive(inst)))
        return out

    def _report_ok(self, kind: str, expected, code: int, report: dict) -> bool:
        if kind in ("containers", "partition"):
            inst = report.get("instance", {})
            result = report.get("result", {})
            if code != 0 or (inst.get("n"), inst.get("m")) != (expected["n"], expected["m"]):
                return False
            if kind == "containers":
                return result.get("low_degree") is True and result.get("container_count") == 0
            return result.get("container_count", 0) > 0 and not result.get("low_degree")
        if kind == "sat":
            model = report.get("result", {}).get("model")
            return (
                code == 0
                and model is not None
                and expected.is_satisfied_by({int(v): bool(b) for v, b in model.items()})
            )
        return code == 0 and report.get("result", {}).get("value") == str(expected)

    def run(self, inst, index: int) -> list[Outcome]:
        kind, argv, expected = inst
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            seconds, code, failure = _timed(lambda: cli.run(argv))
        path = "containers" if kind in self.container_kinds else "base"
        if failure is not None:
            return [Outcome(path, seconds, failure)]
        text = buf.getvalue()
        self.report_bytes.append(len(text.encode()))
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return [Outcome(path, seconds, "mismatch")]
        if code == 2 and "error" in report:
            error = report["error"].get("type")
            failure = error if error in ("SizeLimitError", "PreconditionError") else "other"
        elif not self._report_ok(kind, expected, code, report):
            failure = "mismatch"
        return [Outcome(path, seconds, failure)]


WORKLOADS = {w.name: w for w in (Mis, ColorDense, KsatDense, CliIngest)}
