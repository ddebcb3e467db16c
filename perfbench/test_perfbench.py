"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import functools
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = run.locate_program(ROOT)
NAMES = sorted(workloads.WORKLOADS)


def _texts(name, seed):
    inp = workloads.make_input(name, seed)
    return inp.off_text(), inp.contacts_text()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_input_bytes(name):
    assert _texts(name, 7) == _texts(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_bytes_same_expected_counts(name):
    first = workloads.make_input(name, 1)
    second = workloads.make_input(name, 2)
    assert first.expected == second.expected
    assert first.off_text() != second.off_text()


def _case(tmp_path, name, scale):
    return run.prepare(workloads.make_input(name, 3, scale), tmp_path)


@pytest.mark.parametrize("name", NAMES)
def test_reduced_run_passes_output_check(tmp_path, name):
    import globalloops

    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    case = _case(tmp_path, name, scale=4)
    cmd = [sys.executable, "-c", run.CLI_ENTRY, *case.cli_args]
    for _ in range(2):  # the second report must repeat the first byte for byte
        _, code, peak = run.spawn(cmd, env, tmp_path / "err.txt")
        assert run.check_output(case, code, (tmp_path / "err.txt").read_text()) == []
        assert peak > 0
    _, problems = run.library_sequence(globalloops, case)
    assert problems == []


def test_corrupted_expected_count_fails_the_check(tmp_path):
    import globalloops
    from globalloops import meshio

    case = _case(tmp_path, "loops-heavy", scale=4)
    text = meshio.render_report(meshio.report_dict(*_compute(globalloops, case)))
    assert checks.check_report(text, case.inp, case.incidence)[0] == []

    case.inp.surface.components[0].contacts += 1
    problems, _ = checks.check_report(text, case.inp, case.incidence)
    assert any("co generators" in p for p in problems)


def test_broken_cocycle_fails_the_check(tmp_path):
    import globalloops
    from globalloops import meshio

    case = _case(tmp_path, "verify-small", scale=1)
    report = meshio.report_dict(*_compute(globalloops, case))
    report["generators"][0]["edges"][0]["coefficient"] += 1
    problems, _ = checks.check_report(json.dumps(report), case.inp, case.incidence)
    assert any("not a cocycle" in p for p in problems)


def _compute(api, case):
    surface = case.inp.surface
    complex_ = api.build_complex(surface.num_vertices, surface.faces)
    contact_edges = {complex_.edge_index[pair] for pair in case.contact_pairs}
    return complex_, api.compute_generators(complex_, contact_edges)


def _bound_attributes():
    out = {}
    for target, attr, _, _ in spans.BINDINGS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        out[(target, attr)] = getattr(owner, attr)
    return out


def test_traced_run_restores_every_binding(tmp_path):
    before = _bound_attributes()
    case = _case(tmp_path, "verify-small", scale=1)
    metrics = run.measure_layers(case, 0.0, run.Ledger())
    assert all(after is before[key] for key, after in _bound_attributes().items())
    assert metrics["oracle.exact_rank.calls"][0] > 0
    assert metrics["generators.count"][0] == sum(case.inp.expected[k] for k in ("ha", "ho", "co"))


def test_bindings_restored_when_traced_code_raises():
    before = _bound_attributes()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _bound_attributes() != before
            raise RuntimeError("boom")
    assert all(after is before[key] for key, after in _bound_attributes().items())


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    total = sum(tracer.self_times().values())
    root = tracer.spans[0]
    assert total == pytest.approx(root.end - root.start, abs=1e-9)
    assert tracer.calls()["a"] == 2
    assert {s.invocation for s in tracer.spans} == {1}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_contract_json(monkeypatch, capsys, trace, kind):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "make_input", functools.partial(workloads.make_input, scale=8))
    monkeypatch.setitem(run.ITERATIONS, "loops-heavy", 12)
    code = run.main(["--workload", "loops-heavy", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    for metric in spec[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if kind == "end_to_end":
            assert result["metrics"][metric["name"]]["value"] > 0


def test_every_listed_workload_has_fixed_iterations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.ITERATIONS)


def test_tail_percentile_does_not_depend_on_the_sample_count():
    planned = 30
    for extra in (0, 7, 30):
        values = [float(i) for i in range(1, planned + extra + 1)]
        _, pct = run.tail(values, planned)
        assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([float(i) for i in range(1, 31)], 30)[0] == 20.0
    assert run.tail([float(i) for i in range(1, 61)], 30)[0] == 40.0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
