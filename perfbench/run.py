#!/usr/bin/env python3
"""Benchmark of the compute pipeline, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload's input file from the seed, runs the program
from ``src/`` the way its users do, checks every output, and prints one line
per metric followed by a JSON summary as the last line of standard output.

With ``--trace 0`` it measures two users in turn, serially and from one
process: a command-line user who runs ``global-loops compute`` as a child
process, and a library user who calls the README sequence in process.  With
``--trace 1`` it runs the command in process, alternating untraced calls
with calls that record spans around each layer (see ``spans``), and reports
per-layer self times and exact counts.

See README.md in this directory for the workloads and for which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from checks import Incidence, check_library, check_report
from spans import Tracer
from workloads import WORKLOADS, Input, make_input

BENCH_DIR = Path(__file__).resolve().parent
# What the ``global-loops`` console script runs.
CLI_ENTRY = "import sys; from globalloops.cli import main; sys.exit(main())"
IMPORT_ONLY = "import globalloops.cli"
# Iterations per run, fixed for each workload so that parent and change
# report their tail at the same percentile.  A run takes these samples and
# goes on sampling until ``--seconds`` have passed.
ITERATIONS = {
    "loops-heavy": 40,
    "verify-small": 30,
}
TAIL_BEYOND = 10
# A run ends by this many seconds even short of its iterations, and a child
# that runs longer than CHILD_TIMEOUT_S is killed and counted as failed.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 60.0
# Times are reported at reference speed.  The reference machine's speed
# drifts by 10-20% from one minute to the next, and all of its code slows
# together, so each sample is scaled by CALIBRATION_S over the time of a
# fixed pure-Python loop measured beside it.  A change in the program's own
# cost moves the scaled time as it moves the raw one; the run prints both.
CALIBRATION_S = 0.007

# Per-layer times in seconds: metric name -> span name.  Every time here is
# self time, the span's duration minus its children's.
LAYER_TIMES = {
    "meshio.load_off.self_s": "meshio.load_off",
    "meshio.parse_off.s": "meshio.parse_off",
    "meshio.load_contacts.s": "meshio.load_contacts",
    "meshio.report_dict.s": "meshio.report_dict",
    "meshio.render_report.s": "meshio.render_report",
    "surface.build_complex.s": "surface.build_complex",
    "surface.build_complex.rebuild_s": "surface.build_complex.rebuild",
    "surface.connected_components.s": "surface.connected_components",
    "surface.classify_boundary.s": "surface.classify_boundary",
    "dual.build_dual.s": "dual.build_dual",
    "forest.build_tree_cotree.s": "forest.build_tree_cotree",
    "forest.path.s": "forest.path",
    "transport.transport.s": "transport.transport",
    "generators.compute_generators.self_s": "generators.compute_generators",
    "generators.handles.self_s": "generators.handles",
    "generators.holes.s": "generators.holes",
    "generators.contacts.self_s": "generators.contacts",
    "oracle.verify.self_s": "oracle.verify",
    "oracle.betti1_relative.self_s": "oracle.betti1_relative",
    "oracle.homology_snf.self_s": "oracle.homology_snf",
    "oracle.is_orientable.s": "oracle.is_orientable",
    "oracle.exact_rank.s": "oracle.exact_rank",
    "oracle.smith_invariant_factors.s": "oracle.smith_invariant_factors",
    "cli.self_s": "cli",
}
# Exact counts: metric name -> (unit, key in ``Tracer.counts``).
LAYER_COUNTS = {
    "meshio.input_bytes": ("bytes", "meshio.input_bytes"),
    "meshio.report_bytes": ("bytes", "meshio.report_bytes"),
    "surface.components": ("count", "surface.components"),
    "forest.path_edges": ("count", "forest.path_edges"),
    "generators.support_edges": ("count", "generators.support_edges"),
    "generators.count": ("count", "generators.count"),
    "oracle.exact_rank.cells": ("count", "oracle.exact_rank.cells"),
    "oracle.smith_invariant_factors.cells": ("count", "oracle.smith_invariant_factors.cells"),
}
# Call counts: metric name -> span name.  ``surface.build_complex.calls``
# counts the per-component rebuilds only.
LAYER_CALLS = {
    "surface.build_complex.calls": "surface.build_complex.rebuild",
    "forest.path.calls": "forest.path",
    "transport.calls": "transport.transport",
    "oracle.exact_rank.calls": "oracle.exact_rank",
}


@dataclass
class Case:
    """The run's input on disk, with the reference output once checked."""

    inp: Input
    off: Path
    contacts: Path | None
    out: Path
    num_edges: int
    contact_pairs: list[tuple[int, int]]
    incidence: Incidence
    digest: str | None = None
    support: int | None = None
    report_problems: list[str] | None = None

    @property
    def cli_args(self) -> list[str]:
        args = ["compute", str(self.off)]
        if self.contacts is not None:
            args += ["--contacts", str(self.contacts)]
        if self.inp.verify:
            args.append("--verify")
        return args + ["--out", str(self.out)]


class Ledger:
    """Attempted and failed invocations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"{label}: {p}" for p in problems]


def locate_program(root: Path) -> Path:
    """Put the checkout's ``src`` first on the import path and return it."""
    src = root / "src"
    if not (src / "globalloops" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/globalloops not found; run from the repository root")
    sys.path.insert(0, str(src))
    import globalloops

    if Path(globalloops.__file__).resolve().parent != (src / "globalloops").resolve():
        raise SystemExit(f"error: globalloops imported from {globalloops.__file__}, not {src}")
    return src


def prepare(inp: Input, work: Path) -> Case:
    off = work / f"{inp.name}.off"
    off.write_text(inp.off_text())
    contacts = None
    if inp.contacts_text() is not None:
        contacts = work / f"{inp.name}.contacts.txt"
        contacts.write_text(inp.contacts_text())
    pairs = [(min(u, w), max(u, w)) for arc in inp.surface.arcs for u, w in arc]
    return Case(inp, off, contacts, work / f"{inp.name}.report.json",
                inp.surface.num_edges, pairs, Incidence(inp))


def input_digest(case: Case) -> str:
    h = hashlib.sha256(case.off.read_bytes())
    if case.contacts is not None:
        h.update(case.contacts.read_bytes())
    return h.hexdigest()


def spawn(cmd: list[str], env: dict, err_path: Path) -> tuple[float, int, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def check_output(case: Case, code: int, err_text: str) -> list[str]:
    """Exit code, report bytes against the first report, and the report
    itself the first time it is seen."""
    if code != 0:
        return [f"exit code {code}: {err_text.strip()[-300:]}"]
    data = case.out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if case.digest is None:
        case.digest = digest
        try:
            case.report_problems, case.support = check_report(
                data.decode(), case.inp, case.incidence
            )
        except (ValueError, KeyError, TypeError) as exc:
            case.report_problems = [f"unreadable report: {exc!r}"]
    elif digest != case.digest:
        return ["report bytes differ from the first report of this run"]
    return list(case.report_problems)


def library_sequence(api, case: Case) -> tuple[float, list[str]]:
    """The README sequence on the generated face list, timed as a whole."""
    surface = case.inp.surface
    t0 = time.perf_counter()
    complex_ = api.build_complex(surface.num_vertices, surface.faces)
    contact_edges = {complex_.edge_index[pair] for pair in case.contact_pairs}
    gens = api.compute_generators(complex_, contact_edges)
    verification = None
    if case.inp.verify:
        partition = api.classify_boundary(complex_, contact_edges)
        verification = api.verify(complex_, partition, gens)
    elapsed = time.perf_counter() - t0
    problems, support = check_library(gens, verification, case.inp)
    if case.support is not None and support != case.support:
        problems.append(f"library support {support} differs from report {case.support}")
    return elapsed, problems


def _calibration_loop(n: int = 60) -> None:
    """Fixed work of the program's kind: tuple-keyed dicts, a breadth-first
    search and a sort."""
    adjacency = {}
    for i in range(n):
        for j in range(n):
            adjacency[i, j] = (((i + 1) % n, j), ((i - 1) % n, j), (i, (j + 1) % n), (i, (j - 1) % n))
    parent = {(0, 0): None}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    sorted(parent, key=lambda v: (v[1], v[0]))


def calibrate() -> float:
    """The fastest of three timed calibration loops, after a collection."""
    gc.collect()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return min(times)


def tail(values: list[float], planned: int) -> tuple[float, float]:
    """The nearest-rank value at the percentile that leaves TAIL_BEYOND of
    ``planned`` samples above it, and that percentile.  The percentile
    depends on ``planned`` only, so runs with more samples report the same
    one."""
    ordered = sorted(values)
    kept = max(planned - TAIL_BEYOND, 1)
    rank = max(-(-kept * len(ordered) // planned), 1)
    return ordered[rank - 1], 100.0 * kept / planned


def measure_users(case: Case, env, work, seconds, ledger) -> dict:
    import globalloops as api

    iterations = ITERATIONS[case.inp.name]
    err = work / "stderr.txt"
    import_only = [sys.executable, "-c", IMPORT_ONLY]
    # Warm-up: compiles bytecode and fills the page cache; not measured.
    spawn(import_only, env, err)

    kinds = ("setup", "cli", "library")
    raw = {kind: [] for kind in kinds}
    scaled = {kind: [] for kind in kinds}
    rss, calibrations = [], []

    def keep(kind, wall, cal_before, cal_after):
        raw[kind].append(wall)
        scaled[kind].append(wall * 2.0 * CALIBRATION_S / (cal_before + cal_after))

    before = calibrate()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(raw["cli"]) >= iterations):
            break
        # One set-up sample per iteration spreads them over the whole run.
        setup_wall = spawn(import_only, env, err)[0]
        case.out.unlink(missing_ok=True)
        cli_wall, code, peak = spawn([sys.executable, "-c", CLI_ENTRY, *case.cli_args], env, err)
        ledger.record("cli", check_output(case, code, err.read_text()))
        rss.append(peak)
        middle = calibrate()
        keep("setup", setup_wall, before, middle)
        keep("cli", cli_wall, before, middle)

        gc.collect()
        library_wall = None
        try:
            library_wall, problems = library_sequence(api, case)
        except Exception:  # a crash in the program is a failed invocation
            problems = [traceback.format_exc(limit=3)]
        ledger.record("library", problems)
        before = calibrate()
        if library_wall is not None:
            keep("library", library_wall, middle, before)
        calibrations += [middle, before]

    if len(raw["cli"]) < iterations:
        print(f"warning: stopped after {HARD_LIMIT_S:.0f} s with {len(raw['cli'])} of "
              f"{iterations} iterations")
    scaled["library"] = scaled["library"] or [0.0]  # every call crashed; the run fails anyway
    cli_tail, cli_pct = tail(scaled["cli"], iterations)
    lib_tail, lib_pct = tail(scaled["library"], iterations)
    print(f"calibration loop: median {statistics.median(calibrations):.6f} s, "
          f"times below are scaled to {CALIBRATION_S} s")
    for kind, pct in (("setup", None), ("cli", cli_pct), ("library", lib_pct)):
        note = "" if pct is None else f", tail is p{pct:.1f}"
        print(f"{kind}: {len(raw[kind])} samples{note}; unscaled median "
              f"{statistics.median(raw[kind] or [0.0]):.6f} s")
    return {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "cli_s.p50": (statistics.median(scaled["cli"]), "s"),
        "cli_s.tail": (cli_tail, "s"),
        "library_s.p50": (statistics.median(scaled["library"]), "s"),
        "library_s.tail": (lib_tail, "s"),
        "edges_per_s": (case.num_edges * len(scaled["cli"]) / sum(scaled["cli"]), "edges/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def measure_layers(case: Case, seconds, ledger) -> dict:
    from globalloops import cli

    def invoke(tracer: Tracer | None) -> float:
        case.out.unlink(missing_ok=True)
        gc.collect()
        err_text = ""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(case.cli_args)
            else:
                with tracer.span("cli"):
                    code = cli.main(case.cli_args)
        except Exception:  # a crash in the program is a failed invocation
            code, err_text = 1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        ledger.record("traced" if tracer else "untraced", check_output(case, code, err_text))
        return elapsed

    tracer = Tracer()
    plain, traced = [], []
    invoke(None)  # warm-up, and the reference report
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(traced) >= 3):
            break
        # Alternate which kind of call goes first, so order effects cancel
        # in trace.overhead_s.
        traced_first = len(traced) % 2 == 1
        for use_tracer in (traced_first, not traced_first):
            if use_tracer:
                with tracer.installed():
                    traced.append(invoke(tracer))
            else:
                plain.append(invoke(None))

    calls_made = len(traced)
    self_times = tracer.self_times()
    calls = tracer.calls()
    metrics = {
        name: (self_times.get(span, 0.0) / calls_made, "s") for name, span in LAYER_TIMES.items()
    }
    counts = [(name, unit, tracer.counts[key]) for name, (unit, key) in LAYER_COUNTS.items()]
    counts += [(name, "count", calls[span]) for name, span in LAYER_CALLS.items()]
    for name, unit, total in counts:
        value = total / calls_made  # every call does the same work, so this is exact
        metrics[name] = (int(value) if value == int(value) else value, unit)
    traced_mean = statistics.fmean(traced)
    metrics["trace.total_s"] = (traced_mean, "s")
    metrics["trace.overhead_s"] = (traced_mean - statistics.fmean(plain), "s")
    covered = sum(self_times.values()) / calls_made
    print(f"trace: {calls_made} traced and {len(plain)} untraced in-process calls")
    print(f"trace: self times sum to {covered:.6f} s of {traced_mean:.6f} s traced "
          f"({100.0 * covered / traced_mean:.2f}%)")
    for binding in tracer.missing:
        print(f"trace: binding {binding} not found; its time is in its caller's self time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = locate_program(root)
    env = dict(os.environ, PYTHONPATH=str(src))
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / "_work"))
    try:
        case = prepare(make_input(args.workload, args.seed), work)
        s = case.inp.surface
        print(f"workload {args.workload}, seed {args.seed}: V={s.num_vertices} "
              f"E={case.num_edges} F={len(s.faces)} arcs={len(s.arcs)} "
              f"input sha256={input_digest(case)}")
        ledger = Ledger()
        if args.trace:
            metrics = measure_layers(case, args.seconds, ledger)
        else:
            metrics = measure_users(case, env, work, args.seconds, ledger)
        exp = case.inp.expected
        print(f"report sha256={case.digest} support={case.support} "
              f"ha={exp['ha']} ho={exp['ho']} co={exp['co']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"failed_ratio: {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
