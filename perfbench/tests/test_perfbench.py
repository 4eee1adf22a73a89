"""Tests of the benchmark itself, at the smallest run length.

    python3 -m pytest perfbench/tests -q     (from the repository root)
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_of_nested_spans():
    spans = [
        ("parent", 0.0, 10.0),
        ("child", 2.0, 5.0),
        ("grandchild", 3.0, 4.0),
        ("child", 6.0, 8.0),
        ("sibling", 10.5, 11.0),
    ]
    times = tracer.self_times(spans, wall=12.0)
    assert times == pytest.approx(
        {"parent": 5.0, "child": 4.0, "grandchild": 1.0, "sibling": 0.5, "unattributed": 1.5}
    )
    assert sum(times.values()) == pytest.approx(12.0)


def test_self_times_charge_concurrent_overlap_once():
    # Two asyncio tasks' spans overlap without nesting.
    spans = [("a", 0.0, 4.0), ("b", 2.0, 6.0), ("inner", 3.0, 5.0)]
    times = tracer.self_times(spans, wall=8.0)
    assert sum(times.values()) == pytest.approx(8.0)
    assert times["unattributed"] == pytest.approx(2.0)
    assert times["inner"] == pytest.approx(2.0)


def test_install_wraps_functions_and_rebinds_early_imports(monkeypatch):
    target = types.ModuleType("repro_perfbench_fake")

    def work(values):
        return sum(values)

    target.work = work
    user = types.ModuleType("repro_perfbench_user")
    user.work = work  # a ``from target import work`` binding
    monkeypatch.setitem(sys.modules, target.__name__, target)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    recorder = tracer.Tracer()
    tracer.install(recorder, (("fake.layer", f"{target.__name__}:work"),))
    assert user.work([1, 2, 3]) == 6
    assert target.work([4]) == 4
    assert recorder.counts["fake.layer.calls"] == 2
    assert [span[0] for span in recorder.spans] == ["fake.layer", "fake.layer"]


def test_self_time_metrics_sum_to_wall():
    # Layers with no metric of their own (the tracer's work, connection
    # I/O) land in unattributed.s, so the printed self times add up.
    layers = {
        "api.import": 1.0, "exec.prime": 0.5, "frontend.icache": 2.0,
        "tracing.install": 0.25, "tracing.digest": 0.75,
        "serve.connection": 0.5, "serve.handler": 0.25, "unattributed": 1.0,
    }
    documents = [
        {"wall_s": 6.25, "self_s": layers, "counts": {"serve.handler.calls": 5}, "distinct": {}},
        {"wall_s": 1.0, "self_s": {"api.import": 1.0}, "counts": {}, "distinct": {}},
    ]
    metrics = run.layer_metrics(documents, overhead=0.0, late_ms=0.0)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["exec.prime.s"] == 0.5
    assert metrics["unattributed.s"] == pytest.approx(2.5)
    assert metrics["serve.wait_ms"] == pytest.approx(100.0)
    self_times = [value for name, value in metrics.items() if name.endswith(".s") and name != "wall.s"]
    assert sum(self_times) == pytest.approx(metrics["wall.s"]) == pytest.approx(7.25)


# -- correctness gate --------------------------------------------------------


def test_gate_catches_a_perturbed_output(tmp_path):
    for name, text in (("a.csv", "x\n1\n"), ("a.json", "{}"), ("manifest.json", "{}")):
        (tmp_path / name).write_text(text)
    reference = run.output_digests(str(tmp_path))
    assert "manifest.json" not in reference
    (tmp_path / "a.csv").write_text("x\n2\n")
    gate = run.Gate()
    run.compare_digests(gate, "test", run.output_digests(str(tmp_path)), reference)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_body_check_catches_a_perturbed_frame(tmp_path):
    artifact = {
        "experiment": "fig1",
        "primary": "main",
        "frames": {"main": {"schema": 1, "columns": ["workload", "mpki"], "rows": [["FT", 1.5], ["LU", 2.25]]}},
    }
    (tmp_path / "entry.json").write_text(json.dumps({"key": "k" * 64, "artifact": artifact}))
    frames = run.StoredFrames(str(tmp_path), ["fig1"])
    url = "/experiment/fig1?where=workload:LU&format=json"
    good = {"experiment": "fig1", "key": "k" * 64, "frame": "main", "columns": ["workload", "mpki"], "rows": [["LU", 2.25]]}
    assert run.check_body(frames, url, json.dumps(good).encode())
    good["rows"][0][1] = 2.5
    assert not run.check_body(frames, url, json.dumps(good).encode())
    csv_url = "/experiment/fig1?columns=mpki&format=csv"
    assert run.check_body(frames, csv_url, b"mpki\r\n1.5\r\n2.25\r\n")
    assert not run.check_body(frames, csv_url, b"mpki\r\n1.5\r\n2.26\r\n")


def test_perturbed_golden_fails_the_run(monkeypatch, capsys):
    golden = run.load_golden()
    name = sorted(golden["paper"]["files"])[0]
    golden["paper"]["files"][name] = "0" * 64
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "paper-cold", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_failed_command_still_prints_the_result(monkeypatch, capsys):
    # ``--instructions 0`` makes every experiment raise: the cold ``all``
    # exits non-zero.  The run must count that and still end with the
    # result line.
    monkeypatch.setattr(run, "PAPER_ARGS", ("all", "--instructions", "0"))
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "paper-cold", "--seed", "4", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


# -- every workload end to end -----------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_end_to_end(workload, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = dict(run.END_TO_END_UNITS)
    if workload == "serve-mixed":
        expected.update(run.SERVE_UNITS)
    assert set(result["metrics"]) == set(expected)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_writes_spans_that_sum_to_wall(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "explore-wide", "--seed", "6", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["frontend.icache.calls"] >= metrics["frontend.icache.distinct"] > 0
    self_times = [value for name, value in metrics.items() if name.endswith(".s") and name != "wall.s"]
    assert sum(self_times) == pytest.approx(metrics["wall.s"])
    for label in ("cold", "warm"):
        path = os.path.join(ROOT, ".perfbench", "spans", f"explore-wide-seed6-{label}.json")
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
        assert sum(document["self_s"].values()) == pytest.approx(document["wall_s"])
