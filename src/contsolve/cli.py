"""Command-line front end: one subcommand per solver.

Every run prints a single JSON report on stdout. Exit codes: 0 for success,
1 for a negative decision (not colorable / unsatisfiable), 2 for errors; the
error report of a `SizeLimitError` names the stage whose budget was hit.
Input files are read as bytes and decoded only by the library's parsers, so
a file that is not UTF-8 is a `ParseError` like any other malformed input,
and one that cannot be read is a `ParameterError`.
Timings are informational only; the counters inside the reports are the
reproducible part and are byte-identical for identical inputs and seeds."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import coloring, containers, core, extsum, mis, partition, sat


def _read_input(path: str) -> bytes:
    """The bytes of the --input file; one that cannot be read is a
    ParameterError naming the path and the OS reason."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise core.ParameterError(f"cannot read --input {path!r}: {exc.strerror or exc}") from None


def _load_graph(args) -> core.Graph:
    if args.random_regular:
        if args.seed is None:
            raise core.ParameterError("--seed is required with --random-regular")
        n, d = args.random_regular
        return core.random_regular_graph(n, d, args.seed)
    if args.input is None:
        raise core.ParameterError("provide --input or --random-regular")
    return core.parse_dimacs_graph(_read_input(args.input))


def _graph_stats(g: core.Graph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "max_degree": g.max_degree,
        "average_degree": g.average_degree,
    }


def _cmd_containers(args) -> tuple[int, dict]:
    g = _load_graph(args)
    if args.builder == "regular":
        epsilon = 0.25 if args.epsilon is None else args.epsilon
        coll = containers.build_regular_collection(g, epsilon, force=args.force)
    else:
        if args.epsilon is not None or args.force:
            raise core.ParameterError("--epsilon and --force only apply to --builder regular")
        coll = containers.build_almost_regular_collection(g)
    return 0, {"instance": _graph_stats(g), "result": containers.collection_report(coll, g)}


def _cmd_partition_containers(args) -> tuple[int, dict]:
    g = _load_graph(args)
    if args.builder == "regular":
        coll = partition.build_partition_collection_regular(g, args.k, force=args.force)
    else:
        if args.force:
            raise core.ParameterError("--force only applies to --builder regular")
        coll = partition.build_partition_collection_almost_regular(g, args.k)
    if args.materialize and not coll.low_degree:
        coll.materialize()
    return 0, {
        "instance": _graph_stats(g),
        "result": partition.partition_collection_report(coll),
    }


def _cmd_extsum(args) -> tuple[int, dict]:
    inst = extsum.ExtSumInstance.from_json(_read_input(args.input))
    stats: dict = {}
    if args.algo == "naive":
        value = extsum.eval_naive(inst)
    elif args.algo == "disjoint":
        value = extsum.eval_disjoint(inst)
    elif args.algo == "k2":
        value = extsum.eval_k2(inst, stats)
    elif args.algo == "k3":
        value = extsum.eval_k3(inst)
    else:
        value = extsum.evaluate(inst)
    try:
        text = str(value)
    except ValueError:
        raise core.SizeLimitError(
            "report", f"value exceeds {sys.get_int_max_str_digits()} decimal digits"
        ) from None
    return 0, {
        "instance": {"universe": inst.universe, "k": inst.k},
        "result": {"value": text, "algo": args.algo},
        "counters": stats,
    }


def _cmd_color(args) -> tuple[int, dict]:
    g = _load_graph(args)
    config = coloring.ColoringConfig(mode=args.mode, certificate=args.certificate)
    result = coloring.solve_kcoloring(g, args.k, config)
    report = {
        "instance": _graph_stats(g),
        "result": {
            "colorable": result.colorable,
            "k": args.k,
            "certificate": result.certificate,
        },
        "counters": result.stats,
    }
    return (0 if result.colorable else 1), report


def _cmd_mis(args) -> tuple[int, dict]:
    g = _load_graph(args)
    config = mis.MisConfig(mode=args.mode, epsilon=args.epsilon)
    result = mis.mis_containers(g, config)
    return 0, {
        "instance": _graph_stats(g),
        "result": {"size": result.size, "weight": result.weight, "set": result.best.to_list()},
        "counters": result.stats,
    }


def _cmd_sat(args) -> tuple[int, dict]:
    if args.random_ksat:
        if args.seed is None:
            raise core.ParameterError("--seed is required with --random-ksat")
        n, m, k = args.random_ksat
        phi = core.random_ksat_formula(n, m, k, args.seed)
    elif args.input:
        phi = core.parse_dimacs_cnf(_read_input(args.input))
    else:
        raise core.ParameterError("provide --input or --random-ksat")
    params = sat.StructureParams(D=args.D, C=args.C, epsilon=args.eps)
    result = sat.solve_ksat_dense(phi, params, sat.SatConfig(mode=args.mode))
    model = (
        None if result.model is None else {str(v): int(b) for v, b in sorted(result.model.items())}
    )
    report = {
        "instance": {"num_vars": phi.num_vars, "clauses": len(phi.clauses), "k": phi.k},
        "result": {"satisfiable": result.satisfiable, "model": model},
        "counters": result.stats,
    }
    return (0 if result.satisfiable else 1), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contsolve")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="DIMACS edge-format graph file")
        source.add_argument(
            "--random-regular", nargs=2, type=int, metavar=("N", "D"),
            help="generate a random d-regular graph instead of reading a file",
        )
        p.add_argument("--seed", type=int, help="RNG seed (required for generators)")

    p = sub.add_parser("containers", help="build a container collection")
    add_graph_source(p)
    p.add_argument("--builder", choices=["regular", "almost-regular"], default="regular")
    p.add_argument("--epsilon", type=float, help="fingerprint slack of the regular builder (default 0.25)")
    p.add_argument("--force", action="store_true", help="build even below the useful-degree floor")
    p.set_defaults(func=_cmd_containers)

    p = sub.add_parser("partition-containers", help="build partition containers")
    add_graph_source(p)
    p.add_argument("--builder", choices=["regular", "almost-regular"], default="regular")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--materialize", action="store_true")
    p.set_defaults(func=_cmd_partition_containers)

    p = sub.add_parser("extsum", help="evaluate an extensions-sum instance")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--input", required=True, help="instance JSON file")
    p.add_argument("--algo", choices=["naive", "disjoint", "k2", "k3", "auto"], default="auto")
    p.set_defaults(func=_cmd_extsum)

    p = sub.add_parser("color", help="decide k-colorability")
    add_graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["auto", "baseline", "containers"], default="auto")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("mis", help="maximum independent set")
    add_graph_source(p)
    p.add_argument("--mode", choices=["auto", "base", "containers"], default="auto")
    p.add_argument("--epsilon", type=float, default=0.25, help="fingerprint slack, read in containers mode "
                   "on every graph: the walk's threshold is tau = ceil(epsilon * average degree)")
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("sat", help="dense k-SAT")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="DIMACS CNF file")
    source.add_argument(
        "--random-ksat", nargs=3, type=int, metavar=("N", "M", "K"),
        help="generate a random k-CNF instead of reading a file",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--D", type=int, default=10)
    p.add_argument("--C", type=float, default=4.0)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--mode", choices=["auto", "dpll", "containers"], default="auto")
    p.set_defaults(func=_cmd_sat)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code, report = args.func(args)
        # serialized inside the boundary too, so a report that cannot be
        # written is an error report
        text = json.dumps({
            "command": args.command,
            **report,
            "timing_ms": round((time.monotonic() - started) * 1000, 3),
        })
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes exit 2
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, core.SizeLimitError):
            error["stage"] = exc.stage
        print(json.dumps({"error": error}))
        return 2
    print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
