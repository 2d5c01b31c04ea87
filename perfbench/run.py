"""Seeded benchmark of contsolve: base path against container path.

Run from the repository root:

    python3 perfbench/run.py --workload mis --seed 1 --seconds 30 --trace 0

Workloads: mis, color-dense, ksat-dense, cli-ingest (see workloads.py).
One single-threaded process runs one workload as a closed loop: the next
instance is sent only after the previous one returned and was checked.

Set-up (imports, instance generation, input files) is timed on its own and
repeated; the timed phase then solves each generated instance once per
path, with cold library caches, until the list ends or --seconds pass.
Times are reported at reference host speed (see calibration_loop) and
also as measured.

--trace 0 prints the end-to-end metrics. --trace 1 runs each instance of
the first half of the list twice, untraced and with every public library
function wrapped in a span (tracing.py), and prints the per-layer metrics
plus the tracing overhead (traced minus untraced time).
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3
# The host speed changes by up to 1.6x for seconds at a time on a shared
# 2-vCPU machine (a fixed loop shows it in CPU time as well as wall time),
# and every measured time moves with it. A calibration loop timed between
# instances tracks that speed; times are scaled to a host on which the loop
# takes CALIBRATION_REF_S, using the median of the CALIBRATION_WINDOW
# readings taken on each side of an instance.
CALIBRATION_REF_S = 0.0005
CALIBRATION_WINDOW = 4

# name -> unit. failed_frac is printed with its failures by type but kept out
# of the JSON metrics: it is 0 on a correct run, and a ratio of a zero median
# cannot gate anything.
END_TO_END = {
    "base_ms_p50": "ms",
    "base_ms_p90": "ms",
    "containers_ms_p50": "ms",
    "containers_ms_p90": "ms",
    "containers_over_base": "ratio",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER_NAMES = (
    "core.self_s", "core.parse_s", "core.parse_edges_per_s",
    "containers.self_s", "containers.regular_build_s", "containers.hypergraph_build_s",
    "containers.builds", "containers.count", "containers.candidates",
    "containers.largest_frac", "containers.vacuous_frac",
    "partition.self_s", "partition.build_s", "partition.materialize_s",
    "partition.unions", "partition.limit_hits",
    "extsum.self_s", "extsum.eval_s", "extsum.calls", "extsum.table_entries",
    "coloring.self_s", "coloring.is_table_s", "coloring.is_table_entries", "coloring.ie_sum_s",
    "coloring.constrained_F_s", "coloring.constrained_F_calls", "coloring.pairs_tested",
    "coloring.candidate_containers", "coloring.is_cache_hit_frac", "coloring.signed_cache_hit_frac",
    "mis.self_s", "mis.bnb_s", "mis.overhead_s", "mis.base_nodes", "mis.container_nodes",
    "mis.node_ratio", "mis.subproblems", "mis.largest_subproblem_frac",
    "sat.self_s", "sat.structure_s", "sat.structure_found_frac", "sat.restrict_s",
    "sat.restrict_calls", "sat.contradiction_frac", "sat.dpll_calls", "sat.dpll_s",
    "sat.largest_restriction_frac",
    "cli.self_s", "cli.report_bytes",
    "trace.spans", "trace.overhead_s", "trace.overhead_frac",
)
PER_LAYER = {name: _per_layer_unit(name) for name in PER_LAYER_NAMES}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["mis", "color-dense", "ksat-dense", "cli-ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


_CALIBRATION_TEXT = "\n".join(f"e {i} {i * 7 % 997}" for i in range(400))


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of what the library spends its time on:
    small-integer and bit arithmetic, then splitting and parsing lines into
    a dict. The collector is held off so that the size of the library's heap
    does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, mask = 0, (1 << 40) - 1
        for i in range(1200):
            x = ((x << 1) ^ i) & mask
            x ^= x >> 7
        seen = {}
        for line in _CALIBRATION_TEXT.splitlines():
            parts = line.split()
            seen[int(parts[1]), int(parts[2])] = x
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scales(readings: list[float], count: int) -> list[float]:
    """Scale factor for each of `count` requests; readings[j] was taken just
    before request j and readings[j + 1] just after it."""
    w = CALIBRATION_WINDOW
    return [
        CALIBRATION_REF_S / statistics.median(readings[max(0, j + 1 - w) : j + 1 + w])
        for j in range(count)
    ]


class Pass:
    """Samples and failure counts of a series of operations. Samples are
    (request index, seconds) pairs."""

    def __init__(self):
        self.samples: dict[str, list[tuple[int, float]]] = {"base": [], "containers": []}
        self.requests: list[float] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self.calibration: list[float] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, workload, inst, index: int) -> None:
        """Run one instance (one closed-loop request) and record it."""
        t0 = time.perf_counter()
        outcomes = workload.run(inst, index)
        self.requests.append(time.perf_counter() - t0)
        for o in outcomes:
            self.attempted += 1
            if o.failure is None:
                self.samples[o.path].append((len(self.requests) - 1, o.seconds))
            else:
                self.failures[o.failure] += 1


def timed_pass(workload, instances, deadline: float) -> Pass:
    result = Pass()
    gc.collect()
    result.calibration.append(calibration_loop())
    for index, inst in enumerate(instances):
        if time.perf_counter() >= deadline:
            break
        result.record(workload, inst, index)
        result.calibration.append(calibration_loop())
    return result


def traced_passes(workload, instances, deadline: float, tracer, caches):
    """Run each instance untraced and traced, in alternating order and each
    time from empty coloring caches, so that both runs of an instance meet
    the same machine state; returns the two passes and the cache hits and
    misses of the traced runs."""
    plain, traced = Pass(), Pass()
    hits = [[0, 0] for _ in caches]
    gc.collect()
    for index, inst in enumerate(instances):
        if time.perf_counter() >= deadline:
            break
        for p in (plain, traced) if index % 2 == 0 else (traced, plain):
            for cache in caches:
                cache.cache_clear()
            if p is plain:
                p.record(workload, inst, index)
                continue
            tracer.instance = index
            with tracer:
                p.record(workload, inst, index)
            for counts, cache in zip(hits, caches):
                info = cache.cache_info()
                counts[0] += info.hits
                counts[1] += info.misses
    return plain, traced, hits


def end_to_end(run: Pass, setup_s: float, scale: list[float]) -> dict[str, float]:
    """End-to-end metrics; scale[j] multiplies the times of request j."""
    base = [s * scale[j] * 1e3 for j, s in run.samples["base"]]
    cont = [s * scale[j] * 1e3 for j, s in run.samples["containers"]]
    req = [s * scale[j] * 1e3 for j, s in enumerate(run.requests)]
    return {
        "base_ms_p50": percentile(base, 50),
        "base_ms_p90": percentile(base, 90),
        "containers_ms_p50": percentile(cont, 50),
        "containers_ms_p90": percentile(cont, 90),
        "containers_over_base": sum(cont) / sum(base) if base else 0.0,
        "request_ms_p50": percentile(req, 50),
        "request_ms_p90": percentile(req, 90),
        "ops_per_s": (run.attempted - run.failed) / (sum(req) / 1e3) if req else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_metrics(values: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")


def setup(workload, seed: int, count: int, workdir: Path, readings: list[float]):
    """Generate the instance list SETUP_ROUNDS times, taking calibration
    readings after each round; the median round is the generation cost."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        instances = workload.generate(seed, count, workdir)
        rounds.append(time.perf_counter() - t0)
        readings.extend(calibration_loop() for _ in range(CALIBRATION_WINDOW))
    return instances, statistics.median(rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "contsolve" / "__init__.py").is_file():
        print(f"error: no contsolve sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    readings = [calibration_loop() for _ in range(CALIBRATION_WINDOW)]
    t0 = time.perf_counter()
    import tracing
    import workloads
    from contsolve import coloring

    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    count = 4 if args.smoke else max(2, math.ceil(workload.rate * args.seconds))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        instances, generate_s = setup(workload, args.seed, count, workdir, readings)
        setup_s = import_s + generate_s
        setup_scale = CALIBRATION_REF_S / statistics.median(readings)
        print(f"# workload {args.workload} seed {args.seed}: {count} instances")

        caches = (coloring._cached_is_table, coloring._signed_table)
        if not args.trace:
            run = timed_pass(workload, instances, time.perf_counter() + args.seconds)
            passes = [run]
            metrics = end_to_end(run, setup_s * setup_scale, speed_scales(run.calibration, len(run.requests)))
            measured = end_to_end(run, setup_s, [1.0] * len(run.requests))
            units = END_TO_END
        else:
            # half the list, each instance twice: as long as an untraced run
            half = instances[: max(1, len(instances) // 2)]
            tracer = tracing.Tracer()
            plain, traced, hits = traced_passes(
                workload, half, time.perf_counter() + 3 * args.seconds, tracer, caches
            )
            passes = [plain, traced]
            metrics = tracing.layer_metrics(tracer.spans)
            for name, (h, m) in zip(("is_cache_hit_frac", "signed_cache_hit_frac"), hits):
                metrics[f"coloring.{name}"] = h / (h + m) if h + m else 0.0
            sizes = getattr(workload, "report_bytes", [])
            metrics["cli.report_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
            metrics["trace.overhead_s"] = sum(traced.requests) - sum(plain.requests)
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / sum(plain.requests)
            spans_path = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.tsv"
            spans_path.parent.mkdir(exist_ok=True)
            tracing.write_spans(tracer.spans, spans_path)
            layers = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
            print(f"# traced {len(traced.requests)} instances; spans in {spans_path.relative_to(ROOT)}")
            print(f"# dominant layer by self time: {max(layers, key=layers.get)}")
            units = PER_LAYER
    finally:
        for path in workdir.glob("input-*"):
            path.unlink()
        if workdir.is_dir():
            workdir.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    print(f"# {sum(len(p.requests) for p in passes)} instance runs, {attempted} operations")
    for path in ("base", "containers"):
        print(f"#   {path} samples: {sum(len(p.samples[path]) for p in passes)}")
    by_type = ", ".join(f"{t}={failures[t]}" for t in workloads.FAILURE_TYPES)
    print(f"  {'failed_frac':34s} {failed / attempted if attempted else 0.0:>16.6g} ratio  ({by_type})")
    print_metrics(metrics, units)
    if not args.trace:
        calibration = statistics.median(run.calibration) * 1e3
        print(f"# as measured; the calibration loop took {calibration:.4g} ms, the reference is {CALIBRATION_REF_S * 1e3:g} ms")
        print_metrics(measured, {k: u for k, u in units.items() if u in ("ms", "s", "1/s")})
    # wrong or disagreeing answers and untyped errors make the run incorrect;
    # typed refusals only count as failed operations
    correct = failures["mismatch"] == 0 and failures["other"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name] if unit == "count" else float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
