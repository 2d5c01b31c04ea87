"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs every workload at smoke size in both modes, checks the output format
against BENCHMARK.json, and feeds each answer check a wrong answer or an
error to see it counted under the right failure type.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from contsolve import cli, coloring, core, extsum, mis, sat  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    report = "\n".join(lines[:-1])
    for m in spec:
        assert f" {m['name']} " in report
    assert "failed_frac" in report and all(t in report for t in workloads.FAILURE_TYPES)


def test_trace_counts_repeat():
    def counts():
        out = bench("mis", 1)
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts()
    assert first["mis.base_nodes"] > 0 and first["containers.count"] > 0
    assert counts() == first


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("mis", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tracer_restores_every_binding():
    before = {
        (mod.__name__, key): value
        for mod in tracing.MODULES
        for key, value in vars(mod).items()
        if callable(value)
    }
    with tracing.Tracer() as tracer:
        assert mis.mis_base is not before[("contsolve.mis", "mis_base")]
        # a name bound by `from .extsum import eval_k2` is patched as well
        assert coloring.eval_k2 is not before[("contsolve.coloring", "eval_k2")]
        mis.mis_base(core.cycle_graph(5))
    assert [s[tracing.NAME] for s in tracer.spans] == ["mis.mis_base"]
    after = {
        (mod.__name__, key): value
        for mod in tracing.MODULES
        for key, value in vars(mod).items()
        if callable(value)
    }
    assert after == before


def failures(workload, instance, index=0):
    return [o.failure for o in workload.run(instance, index)]


def smoke_instances(cls, seed=3, count=2, tmp_path=None):
    w = cls(smoke=True)
    return w, w.generate(seed, count, tmp_path or Path("."))


def test_mis_checks(monkeypatch):
    w, (inst, _) = smoke_instances(workloads.Mis)
    assert failures(w, inst) == [None, None]
    real = mis.mis_containers

    def smaller(g, config):
        r = real(g, config)
        smaller_set = core.VertexSet(r.best.mask & (r.best.mask - 1))
        return mis.MisResult(smaller_set, len(smaller_set), len(smaller_set))

    monkeypatch.setattr(mis, "mis_containers", smaller)
    assert failures(w, inst) == [None, "mismatch"]

    def dependent(g, weights=None):
        everything = core.VertexSet((1 << g.n) - 1)
        return mis.MisResult(everything, g.n, g.n)

    monkeypatch.undo()
    monkeypatch.setattr(mis, "mis_base", dependent)
    # the container path calls mis_base too, and its own check raises
    assert failures(w, inst) == ["mismatch", "other"]


def test_coloring_checks(monkeypatch):
    w, (inst, _) = smoke_instances(workloads.ColorDense)
    assert failures(w, inst) == [None, None]
    real = coloring.solve_kcoloring

    def flipped(g, k, config):
        r = real(g, k, config)
        if config.mode == "containers":
            r.colorable = not r.colorable
        return r

    monkeypatch.setattr(coloring, "solve_kcoloring", flipped)
    assert failures(w, inst) == [None, "mismatch"]

    def refuses(g, k, config):
        raise core.SizeLimitError("is-count-table", "too large")

    monkeypatch.setattr(coloring, "solve_kcoloring", refuses)
    assert failures(w, inst) == ["SizeLimitError", "SizeLimitError"]


def test_sat_checks(monkeypatch):
    w, (phi, _) = smoke_instances(workloads.KsatDense)
    assert failures(w, phi) == [None, None]
    monkeypatch.setattr(sat, "dpll", lambda phi, assumptions=None: (True, {}))
    base_fails, _ = failures(w, phi)
    # an all-false assignment satisfies a random dense 3-CNF only by chance
    assert base_fails == ("mismatch" if not phi.is_satisfied_by({}) else None)

    def refuses(phi, params, config):
        raise core.PreconditionError("no structure")

    monkeypatch.undo()
    monkeypatch.setattr(sat, "solve_ksat_dense", refuses)
    assert failures(w, phi) == [None, "PreconditionError"]


def test_cli_checks(monkeypatch, tmp_path):
    w = workloads.CliIngest(smoke=True)
    instances = w.generate(5, len(w.cycle), tmp_path)
    kinds = {inst[0]: inst for inst in instances}
    assert set(kinds) == {"containers", "sat", "extsum-k2", "extsum-k3", "partition"}
    for inst in instances:
        assert failures(w, inst) == [None], inst[0]

    real = extsum.evaluate
    monkeypatch.setattr(extsum, "evaluate", lambda inst: real(inst) + 1)
    assert failures(w, kinds["extsum-k2"]) == ["mismatch"]

    def refuses(*args, **kwargs):
        raise core.SizeLimitError("partition-container-materialization", "limit")

    monkeypatch.setattr(cli.partition.PartitionContainerCollection, "materialize", refuses)
    assert failures(w, kinds["partition"]) == ["SizeLimitError"]

    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda argv: 1 - real_run(argv))
    assert failures(w, kinds["sat"]) == ["mismatch"]
    assert failures(w, kinds["containers"]) == ["mismatch"]
