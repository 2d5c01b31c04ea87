"""Layer spans recorded from outside the library.

`install` replaces the public functions of each contsolve layer with thin
wrappers that append one span per call: name, start, end, parent span and
the instance being solved. A name imported with `from .x import f` lives on
as an attribute of the importing module, so every module attribute bound to
a traced function is patched, not just the defining one. Spans stay in
memory until the run ends; `layer_metrics` derives the per-layer numbers
from them and `write_spans` saves them.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

from contsolve import cli, coloring, containers, core, extsum, mis, partition, sat

MODULES = (core, containers, partition, extsum, coloring, mis, sat, cli)
LAYERS = ("core", "containers", "partition", "extsum", "coloring", "mis", "sat", "cli")


def _collection_info(args, kwargs, coll):
    sizes = [c.cardinality for c in coll.containers]
    return {
        "n": args[0].n,
        "count": len(sizes),
        "largest": max(sizes, default=0),
        "candidates": coll.stats.get("candidate_count", 0),
    }


def _extsum_info(args, kwargs, value):
    return {"entries": sum(len(t) for t in args[0].tables)}


def _coloring_info(args, kwargs, result):
    return {
        "pairs_tested": result.stats.get("pairs_tested", 0),
        "candidates": result.stats.get("candidate_containers", 0),
    }


def _mis_info(args, kwargs, result):
    return {
        "n": args[0].n,
        "nodes": result.stats.get("nodes", 0),
        "subproblems": result.stats.get("containers", 0),
        "largest": result.stats.get("largest_subproblem", 0),
    }


def _sat_info(args, kwargs, result):
    largest = result.stats.get("largest_restriction")
    return {"frac": None if largest is None else largest / args[0].num_vars}


# (owner, attribute, span name, extractor of small per-call facts).
# Owners are the defining modules and classes; `install` finds the other
# attributes that bind the same function object.
TARGETS = (
    (core, "parse_dimacs_graph", "core.parse_dimacs_graph", lambda a, k, g: {"edges": g.m}),
    (core, "parse_dimacs_cnf", "core.parse_dimacs_cnf", None),
    (containers, "build_regular_collection", "containers.build_regular_collection", _collection_info),
    (containers, "build_hypergraph_collection", "containers.build_hypergraph_collection", _collection_info),
    (containers, "build_almost_regular_collection", "containers.build_almost_regular_collection", None),
    (containers, "collection_report", "containers.collection_report", None),
    (partition, "build_partition_collection_regular", "partition.build_partition_collection_regular", None),
    (partition, "build_partition_collection_almost_regular", "partition.build_partition_collection_almost_regular", None),
    (partition.PartitionContainerCollection, "materialize", "partition.materialize", lambda a, k, r: {"unions": len(r)}),
    (partition, "partition_collection_report", "partition.partition_collection_report", None),
    (extsum, "evaluate", "extsum.evaluate", _extsum_info),
    (extsum, "eval_naive", "extsum.eval_naive", _extsum_info),
    (extsum, "eval_disjoint", "extsum.eval_disjoint", _extsum_info),
    (extsum, "eval_k2", "extsum.eval_k2", _extsum_info),
    (extsum, "eval_k3", "extsum.eval_k3", _extsum_info),
    (coloring, "solve_kcoloring", "coloring.solve_kcoloring", _coloring_info),
    (coloring, "count_is_dp", "coloring.count_is_dp", lambda a, k, t: {"entries": len(t.counts)}),
    (coloring, "inclusion_exclusion_F", "coloring.inclusion_exclusion_F", None),
    (coloring, "constrained_F", "coloring.constrained_F", None),
    (coloring, "constrained_extsum_instance", "coloring.constrained_extsum_instance", None),
    (mis, "mis_base", "mis.mis_base", _mis_info),
    (mis, "mis_containers", "mis.mis_containers", _mis_info),
    (sat, "solve_ksat_dense", "sat.solve_ksat_dense", _sat_info),
    (sat, "build_literal_hypergraph", "sat.build_literal_hypergraph", None),
    (sat, "extract_structure", "sat.extract_structure", lambda a, k, r: {"found": r.usable}),
    (sat, "restrict_formula", "sat.restrict_formula", lambda a, k, r: {"contradiction": r.contradiction}),
    (sat, "dpll", "sat.dpll", None),
    (cli, "run", "cli.run", None),
)

# span fields
NAME, START, END, PARENT, INSTANCE, INFO = range(6)


class Tracer:
    """In-memory span log. `instance` is set by the caller before each
    operation so that spans of one instance share an identifier."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, extract):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[END] = perf_counter_ns()
                rec[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter_ns()
            if extract is not None:
                rec[INFO] = extract(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, extract in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, extract)
            owners = [owner] if isinstance(owner, type) else MODULES
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(spans: list[list], path) -> None:
    """One tab-separated line per span; times in ns from the first span."""
    origin = spans[0][START] if spans else 0
    with open(path, "w") as out:
        out.write("id\tname\tstart_ns\tend_ns\tparent\tinstance\tinfo\n")
        for i, s in enumerate(spans):
            info = json.dumps(s[INFO], separators=(",", ":")) if s[INFO] else ""
            out.write(
                f"{i}\t{s[NAME]}\t{s[START] - origin}\t{s[END] - origin}"
                f"\t{s[PARENT]}\t{s[INSTANCE]}\t{info}\n"
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from a span log (see PER_LAYER in run.py).

    A span's self time is its duration minus the durations of its direct
    children; a layer's time is the sum of its spans' self times. Facts are
    read only from calls that returned, except `partition.limit_hits`.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_s = [(s[END] - s[START] - child_ns[i]) / 1e9 for i, s in enumerate(spans)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    def sel(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def secs(*names):
        return sum(self_s[i] for i in sel(*names))

    def facts(ids, key):
        return [spans[i][INFO][key] for i in ids if spans[i][INFO] and key in spans[i][INFO]]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_s[i] for i, s in enumerate(spans) if s[NAME].startswith(layer + ".")
        )

    m["core.parse_s"] = secs("core.parse_dimacs_graph", "core.parse_dimacs_cnf")
    m["core.parse_edges_per_s"] = _ratio(
        sum(facts(sel("core.parse_dimacs_graph"), "edges")), secs("core.parse_dimacs_graph")
    )

    builds = sel("containers.build_regular_collection", "containers.build_hypergraph_collection")
    sizes = [(c, big, n) for c, big, n in zip(facts(builds, "count"), facts(builds, "largest"), facts(builds, "n")) if c]
    m["containers.regular_build_s"] = secs("containers.build_regular_collection")
    m["containers.hypergraph_build_s"] = secs(
        "containers.build_hypergraph_collection", "containers.build_almost_regular_collection"
    )
    m["containers.builds"] = len(builds)
    m["containers.count"] = sum(facts(builds, "count"))
    m["containers.candidates"] = sum(facts(builds, "candidates"))
    m["containers.largest_frac"] = _ratio(sum(big / n for _, big, n in sizes), len(sizes))
    m["containers.vacuous_frac"] = _ratio(sum(big == n for _, big, n in sizes), len(sizes))

    m["partition.build_s"] = secs(
        "partition.build_partition_collection_regular",
        "partition.build_partition_collection_almost_regular",
    )
    m["partition.materialize_s"] = secs("partition.materialize")
    m["partition.unions"] = sum(facts(sel("partition.materialize"), "unions"))
    m["partition.limit_hits"] = facts(sel("partition.materialize"), "error").count("SizeLimitError")

    evaluators = sel(
        "extsum.evaluate", "extsum.eval_naive", "extsum.eval_disjoint", "extsum.eval_k2", "extsum.eval_k3"
    )
    entered = [i for i in evaluators if not parent_name(i).startswith("extsum.")]
    m["extsum.eval_s"] = sum(self_s[i] for i in evaluators)
    m["extsum.calls"] = len(entered)
    m["extsum.table_entries"] = sum(facts(entered, "entries"))

    solves = sel("coloring.solve_kcoloring")
    m["coloring.is_table_s"] = secs("coloring.count_is_dp")
    m["coloring.is_table_entries"] = sum(facts(sel("coloring.count_is_dp"), "entries"))
    m["coloring.ie_sum_s"] = secs("coloring.inclusion_exclusion_F")
    m["coloring.constrained_F_s"] = secs("coloring.constrained_F", "coloring.constrained_extsum_instance")
    m["coloring.constrained_F_calls"] = len(sel("coloring.constrained_F"))
    m["coloring.pairs_tested"] = sum(facts(solves, "pairs_tested"))
    m["coloring.candidate_containers"] = sum(facts(solves, "candidates"))

    inner = [i for i in sel("mis.mis_base") if parent_name(i) == "mis.mis_containers"]
    outer = [i for i in sel("mis.mis_base") if parent_name(i) != "mis.mis_containers"]
    wrapped = sel("mis.mis_containers")
    largest = [big / n for big, n in zip(facts(wrapped, "largest"), facts(wrapped, "n")) if n]
    m["mis.bnb_s"] = sum(self_s[i] for i in inner)
    m["mis.overhead_s"] = secs("mis.mis_containers")
    m["mis.container_nodes"] = sum(facts(inner, "nodes"))
    m["mis.base_nodes"] = sum(facts(outer, "nodes"))
    m["mis.node_ratio"] = _ratio(m["mis.container_nodes"], m["mis.base_nodes"])
    m["mis.subproblems"] = sum(facts(wrapped, "subproblems"))
    m["mis.largest_subproblem_frac"] = _ratio(sum(largest), len(largest))

    structures = sel("sat.extract_structure")
    restrictions = facts(sel("sat.restrict_formula"), "contradiction")
    fracs = [f for f in facts(sel("sat.solve_ksat_dense"), "frac") if f is not None]
    m["sat.structure_s"] = secs("sat.extract_structure", "sat.build_literal_hypergraph")
    m["sat.structure_found_frac"] = _ratio(sum(facts(structures, "found")), len(structures))
    m["sat.restrict_s"] = secs("sat.restrict_formula")
    m["sat.restrict_calls"] = len(sel("sat.restrict_formula"))
    m["sat.contradiction_frac"] = _ratio(sum(restrictions), len(restrictions))
    m["sat.dpll_calls"] = len(sel("sat.dpll"))
    m["sat.dpll_s"] = secs("sat.dpll")
    m["sat.largest_restriction_frac"] = _ratio(sum(fracs), len(fracs))
    m["trace.spans"] = len(spans)
    return m
