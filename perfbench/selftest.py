"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark as a subprocess from the checkout root, the way it
is meant to be run, and take about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import monoidring as mr  # noqa: E402
import monoidring.cli  # noqa: E402,F401 - the tracer patches every package module
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

WORKLOADS = ["construct", "depth", "analyze", "monoid"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_no_binding_is_missed():
    tracer = tracer_mod.Tracer()
    originals = {
        name: getattr(sys.modules[f"monoidring.{name.split('.')[0]}"], name.split(".")[1])
        for name in tracer.names
    }
    tracer.install()
    try:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "monoidring" and not mod_name.startswith("monoidring."):
                continue
            for attr, value in vars(module).items():
                for name, fn in originals.items():
                    assert value is not fn, f"{mod_name}.{attr} still binds {name} unwrapped"
        # criteria imported depth_report by name; the package re-exports it
        model = mr.delta_construct(mr.SimplicialComplex.from_facets([(1,), (2,), (3,)])).model
        tracer.active = True
        mr.criteria.depth_report(model)
        mr.typology.depth_report(model)
        mr.depth_report(model)
        tracer.active = False
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["typology.depth_report"] == 3
    assert calls["typology.fiber_types"] >= 3
    for name, fn in originals.items():
        mod, attr = name.split(".")
        assert getattr(sys.modules[f"monoidring.{mod}"], attr) is fn


def test_self_time_excludes_children():
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.active = True
        mr.delta_construct(mr.SimplicialComplex.from_facets([(1, 2), (3,)]))
        tracer.active = False
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    total_self = sum(summary["self_s"].values())
    assert total_self == pytest.approx(summary["top_level_s"], rel=1e-6)
    assert summary["calls"]["polyhedral.face_lattice"] >= 1
    assert tracer.counts["constructions.attempts"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_top_level_spans_cover_the_traced_wall_time(workload):
    proc, result = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    coverage = result["metrics"]["trace.coverage_ratio"]["value"]
    assert 0.9 <= coverage <= 1.0, coverage


def copy_benchmark(dest):
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def test_perturbed_golden_digest_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    digest = golden["digests"]["monoid"][0][0]
    golden["digests"]["monoid"][0][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(golden))
    proc, result = bench("--workload", "monoid", "--seed", "0", "--seconds", "0.1",
                         "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    assert "golden digest mismatch" in proc.stderr

    proc, result = bench("--workload", "monoid", "--seed", "0", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0 and result["correct"], proc.stderr


def test_times_are_scaled_by_the_probes_on_either_side():
    proc, result = bench("--workload", "monoid", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0 and result["correct"], proc.stderr
    with open(os.path.join(ROOT, ".perfbench_out", "run-monoid-seed1-trace0.json")) as fh:
        record = json.load(fh)
    probes, tasks = record["probe_s"], len(record["task_s"]) // record["rounds"]
    # per round: a probe before set-up, one after it, and one after every task
    assert len(probes) == record["rounds"] * (tasks + 2)
    for r in range(record["rounds"]):
        p = probes[r * (tasks + 2):(r + 1) * (tasks + 2)]
        assert record["setup_s"][r] == pytest.approx(
            record["raw_setup_s"][r] * run.scale(p[0], p[1]))
        for i in range(tasks):
            k = r * tasks + i
            assert record["task_s"][k] == pytest.approx(
                record["raw_task_s"][k] * run.scale(p[i + 1], p[i + 2]))
    assert run.scale(run.REF_PROBE_S, run.REF_PROBE_S) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    copy_benchmark(tmp_path)
    proc, result = bench("--workload", "monoid", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None
