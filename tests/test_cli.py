import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contsolve import containers, partition
from contsolve.cli import run
from contsolve.core import complete_graph, cycle_graph, parse_dimacs_cnf, random_graph
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
        assert code == 2

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
        code, report = run_json(
            capsys, ["color", "--input", path, "--k", "3", "--certificate"]
        )
        assert code == 0
        cert = {int(v): c for v, c in report["result"]["certificate"].items()}
        g = cycle_graph(5)
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

    def test_auto_names_its_reason(self, capsys, tmp_path):
        path = write_graph(tmp_path, random_graph(12, 0.4, 3))
        for source in (["--random-regular", "12", "4", "--seed", "1"], ["--input", path]):
            code, report = run_json(capsys, ["mis", *source])
            assert code == 0 and report["counters"]["path"] == (
                "base (auto: B&B inside containers measured slower than on V)"
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
