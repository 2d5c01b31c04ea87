import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contsolve import containers, partition
from contsolve.cli import run
from contsolve.core import (
    CnfFormula,
    Graph,
    complete_graph,
    cycle_graph,
    parse_dimacs_cnf,
    random_graph,
    random_regular_graph,
)
from contsolve.extsum import ExtSumInstance


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_graph(tmp_path, g, name="g.col"):
    path = tmp_path / name
    path.write_text(g.to_dimacs())
    return str(path)


class TestContainersCommand:
    def test_random_regular(self, capsys):
        code, report = run_json(
            capsys, ["containers", "--random-regular", "12", "4", "--seed", "7", "--force"]
        )
        assert code == 0
        assert report["command"] == "containers"
        assert report["instance"] == {
            "n": 12, "m": 24, "max_degree": 4, "average_degree": 4.0,
        }
        assert report["result"]["container_count"] >= 1

    def test_tiny_epsilon_answers(self, capsys):
        # epsilon^2 is 0.0 in floats at 1e-170: flagged low-degree, and
        # forced, walked at tau 1, as it is where epsilon*d rounds to 0
        argv = ["containers", "--random-regular", "12", "4", "--seed", "1"]
        code, report = run_json(capsys, [*argv, "--epsilon", "1e-170"])
        assert code == 0 and report["result"]["low_degree"] is True
        assert report["result"]["container_count"] == 0
        for epsilon in ("1e-170", "1e-12"):
            code, report = run_json(capsys, [*argv, "--epsilon", epsilon, "--force"])
            assert code == 0 and report["result"]["stats"]["tau"] == 1

    def test_epsilon_whose_size_bound_overflows_exits_two(self, capsys):
        # q = 1/(epsilon*d) overflows at 1e-320, which printed as Infinity
        argv = ["containers", "--random-regular", "12", "4", "--seed", "1", "--epsilon", "1e-320"]
        for force in ([], ["--force"]):
            code, report = run_json(capsys, [*argv, *force])
            assert code == 2 and report["error"]["type"] == "ParameterError"

    def test_seed_required_for_generator(self, capsys):
        code, report = run_json(capsys, ["containers", "--random-regular", "8", "3"])
        assert code == 2
        assert report["error"]["type"] == "ParameterError"

    def test_file_input(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(5))
        code, report = run_json(
            capsys, ["containers", "--input", path, "--epsilon", "0.4"]
        )
        assert code == 0
        assert report["instance"]["n"] == 5

    def test_almost_regular_builder(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(6))
        code, report = run_json(
            capsys,
            ["containers", "--input", path, "--builder", "almost-regular"],
        )
        assert code == 0

    def test_almost_regular_builder_refuses_the_regular_flags(self, capsys):
        # the almost-regular builders take no epsilon and no force, so the
        # flags are refused rather than ignored
        source = ["--random-regular", "16", "6", "--seed", "1", "--builder", "almost-regular"]
        for command, flags in (
            (["containers"], ["--epsilon", "0.45"]),
            (["containers"], ["--force"]),
            (["partition-containers", "--k", "2"], ["--force"]),
        ):
            code, report = run_json(capsys, [*command, *source])
            assert code == 0
            code, report = run_json(capsys, [*command, *source, *flags])
            assert code == 2 and report["error"]["type"] == "ParameterError"
            assert flags[0] in report["error"]["message"]

    def test_regular_builder_epsilon_defaults_to_a_quarter(self, capsys):
        argv = ["containers", "--random-regular", "16", "6", "--seed", "1", "--force"]
        _, default = run_json(capsys, argv)
        _, quarter = run_json(capsys, [*argv, "--epsilon", "0.25"])
        _, wider = run_json(capsys, [*argv, "--epsilon", "0.45"])
        assert default["result"] == quarter["result"] != wider["result"]

    def test_huge_vertex_count_exits_two(self, capsys, tmp_path):
        # header-only inputs whose counts need more than the byte budget
        cases = [
            ("huge.col", "p edge 10000000000 0", "containers"),
            ("wide.col", "p edge 80000 40000", "mis"),
            ("huge.cnf", "p cnf 1000000 4000", "sat"),
        ]
        for name, header, command in cases:
            path = tmp_path / name
            path.write_text(header + "\n")
            started = time.monotonic()
            code, report = run_json(capsys, [command, "--input", str(path)])
            assert time.monotonic() - started < 1
            assert code == 2
            assert report["error"]["type"] == "ParseError"
            assert report["error"]["message"].startswith("line 1:")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["mis", "--random-regular", "160000", "4"], "SizeLimitError"),
            (["sat", "--random-ksat", "1000000", "4000", "3"], "SizeLimitError"),
            (["sat", "--random-ksat", "10", "1000000000", "3"], "SizeLimitError"),
            (["sat", "--random-ksat", "10", "1000000", "0"], "ParameterError"),
            (["sat", "--random-ksat", "10", "1000000", "-1"], "ParameterError"),
            (["sat", "--random-ksat", "10", "-5", "3"], "ParameterError"),
        ],
    )
    def test_generator_arguments_refused_at_once(self, capsys, argv, error):
        started = time.monotonic()
        code, report = run_json(capsys, [*argv, "--seed", "1"])
        assert time.monotonic() - started < 1
        assert code == 2 and report["error"]["type"] == error

    def test_walk_past_the_budget_raises_tau(self, capsys, monkeypatch):
        argv = ["containers", "--random-regular", "12", "3", "--seed", "1", "--force"]
        code, report = run_json(capsys, argv)
        stats = report["result"]["stats"]
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", stats["candidate_count"] - 1)
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["result"]["stats"]["tau"] > stats["tau"]


class TestPartitionContainersCommand:
    def test_cycle(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(16))
        code, report = run_json(
            capsys,
            ["partition-containers", "--input", path, "--k", "2", "--force"],
        )
        assert code == 0
        assert report["result"]["base_container_count"] >= 1

    def test_forced_build_on_an_edgeless_graph_is_flagged(self, capsys, tmp_path):
        # the forced base is flagged edgeless, so nothing is materialized
        path = tmp_path / "edgeless.col"
        path.write_text("p edge 3 0\n")
        code, report = run_json(
            capsys,
            ["partition-containers", "--input", str(path), "--k", "1", "--force", "--materialize"],
        )
        assert code == 0 and report["result"]["low_degree"] is True
        assert "container_count" not in report["result"]

    def test_union_budget_names_the_stage(self, capsys, monkeypatch):
        monkeypatch.setattr(partition, "UNION_BUDGET", 1)
        code, report = run_json(
            capsys,
            ["partition-containers", "--random-regular", "12", "4", "--seed", "1",
             "--k", "2", "--force", "--materialize"],
        )
        assert code == 2
        assert report["error"]["type"] == "SizeLimitError"
        assert report["error"]["stage"] == "partition-container-materialization"


    def test_k_past_the_bound_is_a_parameter_error(self, capsys):
        # 537 once divided by epsilon^2 = 0.0 in the forced base build, 1022
        # overflowed 2^(k+2) as a float, and 8000 gave a degree floor past
        # 4,300 digits that the report could not print
        graph = ["partition-containers", "--random-regular", "12", "4", "--seed", "1"]
        for extra in (["--k", "537", "--force"], ["--k", "1022", "--builder", "almost-regular"],
                      ["--k", "8000"]):
            code, report = run_json(capsys, [*graph, *extra])
            assert code == 2 and report["error"]["type"] == "ParameterError"
            assert f"at most {partition.MAX_K}" in report["error"]["message"]


class TestExtsumCommand:
    def test_eval_agreement_across_algorithms(self, capsys, tmp_path):
        inst = ExtSumInstance(4, ((0, 1), (1, 2)), ((1, 2, 3, 4), (5, -1, 2, 0)))
        path = tmp_path / "inst.json"
        path.write_text(inst.to_json())
        values = {}
        for algo in ("naive", "k2", "auto"):
            code, report = run_json(
                capsys, ["extsum", "eval", "--input", str(path), "--algo", algo]
            )
            assert code == 0
            values[algo] = report["result"]["value"]
        assert len(set(values.values())) == 1

    def test_missing_file(self, capsys, tmp_path):
        code, report = run_json(
            capsys, ["extsum", "eval", "--input", str(tmp_path / "none.json")]
        )
        assert code == 2 and report["error"]["type"] == "ParameterError"

    def test_universe_above_ceiling_exits_two(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"universe": 20000, "subsets": [], "tables": []}')
        code, report = run_json(capsys, ["extsum", "eval", "--input", str(path)])
        assert code == 2
        assert report["error"]["type"] == "SizeLimitError"

    def test_value_past_the_digit_limit_exits_two(self, capsys, tmp_path):
        # three disjoint one-variable tables of 10^1500 multiply to 10^4500
        entry = 10**1500
        inst = ExtSumInstance(3, ((0,), (1,), (2,)), ((entry, 0),) * 3)
        path = tmp_path / "inst.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path.write_text(inst.to_json())
            code, report = run_json(capsys, ["extsum", "eval", "--input", str(path)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert report["error"]["type"] == "SizeLimitError"


class TestColorCommand:
    def test_positive_decision(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(6))
        code, report = run_json(capsys, ["color", "--input", path, "--k", "2"])
        assert code == 0
        assert report["result"]["colorable"] is True

    def test_negative_decision_exit_one(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_graph(4))
        code, report = run_json(capsys, ["color", "--input", path, "--k", "3"])
        assert code == 1
        assert report["result"]["colorable"] is False

    def test_certificate(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(5))
        # the 20-vertex graph's certificate sums are on at most 19 vertices,
        # so it is answered where a sum on n + k = 25 would be refused
        for g, k, source in (
            (cycle_graph(5), 3, ["--input", path]),
            (random_regular_graph(20, 8, 1), 5, ["--random-regular", "20", "8", "--seed", "1"]),
        ):
            code, report = run_json(capsys, ["color", *source, "--k", str(k), "--certificate"])
            assert code == 0
            cert = {int(v): c for v, c in report["result"]["certificate"].items()}
            assert set(cert) == set(range(g.n)) and set(cert.values()) <= set(range(k))
            for u, w in g.edges:
                assert cert[u] != cert[w]

    def test_containers_mode_on_edgeless_graph(self, capsys):
        code, report = run_json(
            capsys,
            ["color", "--random-regular", "6", "0", "--seed", "1", "--k", "2",
             "--mode", "containers"],
        )
        assert code == 0
        assert report["result"]["colorable"] is True

    def test_graph_over_every_ceiling_names_the_stage(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(60))
        code, report = run_json(capsys, ["color", "--input", path, "--k", "3"])
        assert code == 2
        assert report["error"]["type"] == "SizeLimitError"
        assert report["error"]["stage"] == "inclusion-exclusion"


class TestMisCommand:
    def test_basic(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, report = run_json(capsys, ["mis", "--input", path])
        assert code == 0
        assert report["result"]["size"] == 4

    def test_containers_mode(self, capsys):
        code, report = run_json(
            capsys,
            ["mis", "--random-regular", "12", "6", "--seed", "3", "--mode", "containers"],
        )
        assert code == 0
        assert report["counters"]["path"] == "containers"

    def test_tiny_epsilon_on_a_sparse_graph_answers(self, capsys, tmp_path):
        # epsilon times the average degree 2/200 is 0.0 in floats, so p is 1
        path = write_graph(tmp_path, Graph(200, [(0, 1)]))
        _, base = run_json(capsys, ["mis", "--input", path, "--mode", "base"])
        code, report = run_json(capsys, ["mis", "--input", path, "--mode", "containers", "--epsilon", "5e-324"])
        assert code == 0 and report["result"] == base["result"]

    def test_containers_mode_counts_the_walk(self, capsys):
        argv = ["mis", "--random-regular", "24", "12", "--seed", "1"]
        _, base = run_json(capsys, [*argv, "--mode", "base"])
        code, report = run_json(capsys, [*argv, "--mode", "containers", "--epsilon", "0.45"])
        assert code == 0 and report["result"]["set"] == base["result"]["set"]
        counters = report["counters"]
        assert counters["walked"] >= counters["containers"] >= 1
        # a search in the walk meets both clique covers first
        assert counters["covers"] >= 2 * counters["searched"] > 0
        # the walked threshold is the scheme's ceil(0.45 * 12), and a
        # collection smaller than V is no vacuous one
        assert counters["tau"] == 6 and counters["vacuous"] is False

    def test_cut_walk_past_the_budget_exits_two(self, capsys, monkeypatch):
        # the container path's walk is cut, so past the budget it is refused
        # at its own stage, not walked again at a raised tau
        argv = ["mis", "--random-regular", "24", "12", "--seed", "1", "--mode", "containers", "--epsilon", "0.45"]
        _, report = run_json(capsys, argv)
        monkeypatch.setattr(containers, "CANDIDATE_BUDGET", report["counters"]["walked"] - 1)
        code, report = run_json(capsys, argv)
        assert code == 2 and report["error"]["type"] == "SizeLimitError"
        assert report["error"]["stage"] == "fingerprint-enumeration"

    def test_regular_graph_past_the_draw_budget_exits_two(self, capsys):
        started = time.monotonic()
        code, report = run_json(capsys, ["mis", "--random-regular", "50", "48", "--seed", "1"])
        assert time.monotonic() - started < 2
        assert code == 2
        assert report["error"]["type"] == "SizeLimitError"
        assert report["error"]["stage"] == "random-regular-graph"

    def test_a_search_deeper_than_the_recursion_limit_answers(self, capsys, tmp_path):
        # B&B runs on an explicit stack, so a search on 1,200 vertices, deeper
        # than the interpreter's default recursion limit, answers in both modes
        path = tmp_path / "one-edge.col"
        path.write_text("p edge 1200 1\ne 1 2\n")
        for mode in ("base", "containers"):
            code, report = run_json(capsys, ["mis", "--input", str(path), "--mode", mode])
            assert code == 0 and report["result"]["size"] == 1199

    def test_auto_names_its_reason(self, capsys, tmp_path):
        path = write_graph(tmp_path, random_graph(12, 0.4, 3))
        for source in (["--random-regular", "12", "4", "--seed", "1"], ["--input", path]):
            code, report = run_json(capsys, ["mis", *source])
            assert code == 0 and report["counters"]["path"] == (
                "base (auto: no measured rule picks the container path yet)"
            )

    def test_epsilon_outside_its_range_exits_two(self, capsys, tmp_path):
        path = write_graph(tmp_path, random_graph(12, 0.4, 3))
        for source in (["--random-regular", "12", "4", "--seed", "1"], ["--input", path]):
            for mode in ("auto", "base", "containers"):
                code, report = run_json(capsys, ["mis", *source, "--mode", mode, "--epsilon", "0.9"])
                assert code == 2 and report["error"]["type"] == "ParameterError"


class TestSatCommand:
    def test_random_ksat(self, capsys):
        code, report = run_json(
            capsys, ["sat", "--random-ksat", "10", "30", "3", "--seed", "5"]
        )
        assert code in (0, 1)
        assert report["result"]["satisfiable"] is (code == 0)
        assert report["counters"] == {
            "path": "dpll (clause width 3 or more: the only container is every literal)"
        }

    def test_unsatisfiable_exit_one(self, capsys, tmp_path):
        path = tmp_path / "phi.cnf"
        path.write_text(
            "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
        )
        code, report = run_json(capsys, ["sat", "--input", path.as_posix(), "--mode", "dpll"])
        assert code == 1
        assert report["result"]["satisfiable"] is False

    def test_co_degree_bound_that_overflows_exits_two(self, capsys):
        # a finite C times d_eff^(1-epsilon) overflowed and printed as
        # Infinity, which is not JSON
        argv = ["sat", "--random-ksat", "10", "40", "2", "--seed", "1",
                "--mode", "containers", "--D", "2", "--C", "1.7e308"]
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 2 and json.loads(out)["error"]["type"] == "ParameterError"
        assert "Infinity" not in out and "NaN" not in out

    def test_formula_without_variables_has_an_empty_model(self, capsys, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        code, report = run_json(capsys, ["sat", "--input", path.as_posix()])
        assert code == 0
        assert report["result"] == {"satisfiable": True, "model": {}}

    def test_a_search_deeper_than_the_recursion_limit_answers(self, capsys, tmp_path):
        # x1 != x2, x3 != x4, ... on 2,000 variables: DPLL branches 1,000
        # deep, past the interpreter's default recursion limit, on an
        # explicit stack; auto finds no structure and runs DPLL too
        path = tmp_path / "xor.cnf"
        clauses = [c for v in range(1, 2000, 2) for c in ((v, v + 1), (-v, -v - 1))]
        path.write_text(CnfFormula(2000, clauses).to_dimacs())
        for mode in ("dpll", "auto"):
            code, report = run_json(capsys, ["sat", "--input", path.as_posix(), "--mode", mode])
            assert code == 0 and report["result"]["satisfiable"] is True
            model = report["result"]["model"]
            assert all(model[str(v)] != model[str(v + 1)] for v in range(1, 2000, 2))

    @pytest.mark.parametrize(
        "text, extra, path",
        [
            ("p cnf 3 2\n1 2 0\n1 2 3 0\n", [], "dpll (mixed clause widths)"),
            # width 1 with a structure found at D = 2
            ("p cnf 1 4\n1 0\n1 0\n1 0\n1 0\n", ["--D", "2"], "dpll (clause width below 2)"),
        ],
        ids=["mixed-widths", "unit-clauses"],
    )
    def test_auto_solves_what_the_engine_cannot_take(self, capsys, tmp_path, text, extra, path):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text(text)
        code, report = run_json(capsys, ["sat", "--input", cnf.as_posix(), *extra])
        assert code == 0 and report["counters"]["path"] == path
        model = {int(v): bool(b) for v, b in report["result"]["model"].items()}
        assert parse_dimacs_cnf(text).is_satisfied_by(model)


class TestDeterminismAndErrors:
    def test_counters_reproducible(self, capsys):
        argv = ["mis", "--random-regular", "10", "4", "--seed", "11", "--mode", "containers"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b

    def test_bad_arguments_exit_two(self, capsys):
        assert run(["color", "--k", "notanint"]) == 2
        # removed subcommand and flag: the benchmark is perfbench/run.py
        assert run(["bench", "--family", "ksat", "--sizes", "8", "--seed", "1"]) == 2
        assert run(
            ["containers", "--random-regular", "8", "3", "--seed", "1", "--analysis-fallback"]
        ) == 2
        # removed flags that changed no output
        graph = ["--random-regular", "8", "3", "--seed", "1"]
        assert run(["mis", *graph, "--degree-ratio", "3"]) == 2
        assert run(["containers", *graph, "--degree-ratio", "2"]) == 2
        assert run(["partition-containers", *graph, "--k", "2", "--degree-ratio", "2"]) == 2
        assert run(["color", *graph, "--k", "3", "--degree-ratio", "3"]) == 2
        assert run(["color", *graph, "--k", "3", "--degree-threshold", "8"]) == 2
        assert run(["mis", *graph, "--force"]) == 2
        # a file and a generator together: neither is chosen over the other
        assert run(["mis", "--input", "/nonexistent", *graph]) == 2
        assert run(["sat", "--input", "/nonexistent", "--random-ksat", "8", "24", "2", "--seed", "1"]) == 2


    def test_a_report_that_cannot_be_printed_is_an_error_report(self, capsys, monkeypatch):
        # serializing happens inside the error boundary: an int past Python's
        # digit limit ends as exit code 2 and a JSON error, not a traceback
        monkeypatch.setattr(partition, "partition_collection_report", lambda coll: {"d0": 10**5000})
        argv = ["partition-containers", "--random-regular", "12", "4", "--seed", "1", "--k", "2"]
        code, report = run_json(capsys, argv)
        assert code == 2 and report["error"]["type"] == "ValueError"


class TestInputFilesAreBytes:
    # each file reaches its parser as bytes, so one byte that is not UTF-8
    # is a ParseError whatever the locale, at its line in a DIMACS file
    GRAPH = b"p edge 3 2\ne 1 2\nc \xff\ne 2 3\n"
    CNF = b"p cnf 2 1\n1 -2 0\nc \xff\n"
    JSON = b'{"universe": 2, "subsets": [[0]], "tables": [[1, 2]], "name": "\xff"}'
    LINE_3 = "line 3: input is not valid UTF-8"

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (["containers", "--force"], GRAPH, LINE_3),
            (["partition-containers", "--k", "2", "--force"], GRAPH, LINE_3),
            (["color", "--k", "3"], GRAPH, LINE_3),
            (["mis"], GRAPH, LINE_3),
            (["sat"], CNF, LINE_3),
            (["extsum", "eval"], JSON, "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["containers", "partition-containers", "color", "mis", "sat", "extsum"],
    )
    def test_a_byte_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        code, report = run_json(capsys, [*argv, "--input", str(path)])
        assert code == 2
        assert report["error"]["type"] == "ParseError"
        assert report["error"]["message"].startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [["containers", "--force"], ["color", "--k", "2"], ["sat"], ["extsum", "eval"]],
        ids=["containers", "color", "sat", "extsum"],
    )
    @pytest.mark.parametrize(
        "name, reason", [("none.col", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_an_input_that_cannot_be_read_is_a_parameter_error(self, capsys, tmp_path, argv, name, reason):
        path = str(tmp_path / name)
        code, report = run_json(capsys, [*argv, "--input", path])
        assert code == 2
        assert report["error"] == {"type": "ParameterError", "message": f"cannot read --input {path!r}: {reason}"}

    def test_crlf_file_reports_as_its_lf_twin(self, capsys, tmp_path):
        text = random_regular_graph(12, 4, 1).to_dimacs()
        reports = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / "g.col"
            path.write_bytes(text.replace("\n", newline).encode())
            code, report = run_json(capsys, ["containers", "--input", str(path), "--force"])
            assert code == 0
            report.pop("timing_ms")
            reports.append(report)
        assert reports[0] == reports[1]


class TestConsoleEntryPoint:
    def test_module_exit_status(self, tmp_path):
        # the console script's `main` exits with `run`'s code
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        for g, k, code in ((cycle_graph(6), 2, 0), (complete_graph(4), 3, 1)):
            argv = ["color", "--input", write_graph(tmp_path, g), "--k", str(k)]
            out = subprocess.run(
                [sys.executable, "-m", "contsolve.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert out.returncode == code, out.stderr
            assert json.loads(out.stdout)["result"]["colorable"] is (code == 0)
