#!/usr/bin/env python3
"""pdcm benchmark: run one workload through the `pdcm` CLI, check its
outputs, and print the metrics as one JSON line.

    python3 perfbench/run.py --workload generate_large --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; the package is imported from
its src/ directory.  --trace 0 times whole rounds of `python -m pdcm.cli`
child processes and prints the end-to-end metrics; --trace 1 replays the
same rounds in this process through pdcm.cli.main, with and without spans
around each module's functions, and prints the per-layer metrics.
Times are CPU seconds (user + system) unless a name says wall; see the
README for why.  Outputs go to .perfbench-work/<workload>-<size>/ under
the checkout.  The exit code is 0 when every check passed, 1 when one
failed, 2 on a usage error or outside a pdcm checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# pdcm makes no BLAS calls, but numpy's BLAS starts one spinning thread per
# core at import; on two cores that added ~0.25 CPU seconds of noise to every
# process.  One thread, here and in the children, which inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


class Child(NamedTuple):
    code: int
    stdout: str
    cpu: float
    rss_mb: float


class Children:
    """Runs Python child processes from the workload's directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, args: list) -> Child:
        """`python <args>`; its CPU time and peak RSS include the
        processes it started and waited for."""
        with open(self.work / "child.out", "w+") as out, \
                open(self.work / "child.err", "w+") as err:
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    cwd=self.work, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text, problem = out.read(), err.read()
        if code != 0:
            sys.stderr.write(f"python {' '.join(args)} exited {code}: {problem}")
        return Child(code, text, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def pdcm(self, argv: list) -> Child:
        return self.run(["-m", "pdcm.cli", *argv])

    def import_pdcm(self) -> float:
        child = self.run(["-c", "import pdcm.cli"])
        if child.code != 0:
            raise RuntimeError("import pdcm.cli failed")
        return child.cpu

    def checked_pdcm(self, argv: list) -> str:
        child = self.pdcm(argv)
        checks.require(child.code == 0, f"pdcm {argv[0]} exited {child.code}")
        return child.stdout


def setup(workload, children) -> tuple:
    """SETUP_REPEATS times (once at tiny size): build the inputs, then one
    cold import of pdcm in a child.  Returns (setup seconds, import
    seconds) of each repeat."""
    children.import_pdcm()  # compiles the bytecode once, untimed
    setups, imports = [], []
    for _ in range(1 if workload.tiny else SETUP_REPEATS):
        start = time.process_time()
        workload.build_inputs()
        imports.append(children.import_pdcm())
        setups.append(time.process_time() - start + imports[-1])
    return setups, imports


class Rounds:
    """Whole rounds until `seconds` of wall time have passed; counts the
    commands and checks that every round's outputs repeat the first's."""

    def __init__(self, workload, seconds: float):
        self.workload, self.seconds = workload, seconds
        self.attempted = self.failed = 0
        self.stdout = None
        self.repeatable = True
        self._digest = None

    def remove_outputs(self) -> None:
        for name in self.workload.outputs():
            (self.workload.work / name).unlink(missing_ok=True)

    def record(self, codes: dict) -> None:
        self.attempted += len(codes)
        self.failed += sum(code != 0 for code in codes.values())

    def end_round(self, stdout: dict) -> None:
        digest = hashlib.sha256(json.dumps(stdout, sort_keys=True).encode())
        for name in self.workload.outputs():
            path = self.workload.work / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        if self._digest is None:
            self._digest, self.stdout = digest.digest(), stdout
        self.repeatable &= digest.digest() == self._digest

    def __iter__(self):
        start = time.perf_counter()
        while True:
            self.remove_outputs()
            yield
            if time.perf_counter() - start >= self.seconds:
                return


def run_untraced(workload, children, seconds: float) -> tuple:
    setups, _ = setup(workload, children)
    rounds = Rounds(workload, seconds)
    cpus, walls, peaks, details = [], [], [], []
    for _ in rounds:
        stdout, codes, cpu = {}, {}, {}
        peak = 0.0
        start = time.perf_counter()
        for label, argv in workload.commands(traced=False):
            child = children.pdcm(argv)
            stdout[label], codes[label], cpu[label] = child.stdout, child.code, child.cpu
            peak = max(peak, child.rss_mb)
        walls.append(time.perf_counter() - start)
        cpus.append(sum(cpu.values()))
        peaks.append(peak)
        details.append(workload.detail(cpu))
        rounds.record(codes)
        rounds.end_round(stdout)
    detail = {key: {"value": statistics.median(d[key][0] for d in details), "unit": unit}
              for key, (_, unit) in details[0].items()}
    detail["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    print(json.dumps({"rounds_cpu_s": cpus, "detail": detail}))
    return rounds, {"setup_s": (statistics.median(setups), "s"),
                    "cpu_s": (statistics.median(cpus), "s"),
                    "peak_rss_mb": (statistics.median(peaks), "MB")}


def replay(workload, cli) -> tuple:
    """One round in this process through `cli.main`, looked up on each call
    so that a traced binding is used: (CPU seconds, stdout and exit code of
    each command)."""
    stdout, codes = {}, {}
    start = time.process_time()
    for label, argv in workload.commands(traced=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                codes[label] = cli.main(argv)
            except SystemExit as exc:
                codes[label] = exc.code if isinstance(exc.code, int) else 2
        stdout[label] = buf.getvalue()
    return time.process_time() - start, stdout, codes


def layer_metrics(summary: dict, counts: dict, rss_mb: float) -> dict:
    total, own, calls = summary["total"], summary["self"], summary["calls"]

    def t(name):
        return total.get(name, 0.0)

    edges_in = counts.get("simplify.edges_in", 0)
    edges_out = counts.get("simplify.edges_out", 0)
    replicates = counts.get("saveprob.replicates", 0)
    m = {
        "degrees.sample_sequence_s": t("degrees.sample_sequence"),
        "matching.match_stubs_s": t("matching.match_stubs"),
        "matching.match_stubs_union_s": t("matching.match_stubs_union"),
        "rng.make_generator_s": t("rng.make_generator"),
        "rng.generators": calls.get("rng.make_generator", 0),
        "saveprob.monte_carlo_s": t("saveprob.monte_carlo_save_frequency"),
        "saveprob.us_per_replicate": (1e6 * t("saveprob.monte_carlo_save_frequency")
                                      / replicates if replicates else 0.0),
        "saveprob.exact_save_probability_s": t("saveprob.exact_save_probability"),
        "simplify.simplify_s": t("simplify.simplify"),
        "simplify.edges_in": edges_in,
        "simplify.edges_out": edges_out,
        "simplify.kept_ratio": edges_out / edges_in if edges_in else 0.0,
        "simplify.rss_highwater_mb": rss_mb,
        "metrics.degree_census_s": t("metrics.degree_census"),
        "metrics.total_variation_s": t("metrics.total_variation"),
        "metrics.census_support": counts.get("metrics.census_support", 0),
        "experiment.run_cell_s": t("experiment.run_cell"),
        "experiment.cell_self_s": own.get("experiment.run_cell", 0.0),
        "experiment.cells": calls.get("experiment.run_cell", 0),
        "ingest.write_pdgraph_s": t("ingest.write_pdgraph"),
        "ingest.pdgraph_bytes": counts.get("ingest.pdgraph_bytes", 0),
        "ingest.read_pdgraph_s": t("ingest.read_pdgraph"),
        "ingest.parse_edge_list_s": t("ingest.parse_edge_list"),
        "ingest.lines": counts.get("ingest.lines", 0),
        "ingest.to_partially_directed_s": t("ingest.to_partially_directed"),
        "ingest.classify_s": t("ingest._classify"),
        "components.scc_s": t("components.strongly_connected_components"),
    }
    for layer, value in summary["layer_self"].items():
        m[f"{layer}.self_s"] = value
    m["trace.uncovered_s"] = summary["uncovered"]
    return m


UNITS = {"rng.generators": "count", "saveprob.us_per_replicate": "us",
         "simplify.edges_in": "count", "simplify.edges_out": "count",
         "simplify.kept_ratio": "ratio", "simplify.rss_highwater_mb": "MB",
         "metrics.census_support": "count", "experiment.cells": "count",
         "ingest.pdgraph_bytes": "bytes", "ingest.lines": "count"}


def run_traced(workload, children, seconds: float) -> tuple:
    from tracing import Tracer

    _, imports = setup(workload, children)
    sys.path.insert(0, str(SRC))
    from pdcm import cli

    tracer = Tracer()
    rounds = Rounds(workload, seconds)
    plain, traced, per_round = [], [], []
    for _ in rounds:
        cpu, stdout, codes = replay(workload, cli)
        plain.append(cpu)
        rounds.record(codes)
        rounds.remove_outputs()
        tracer.reset()
        tracer.install()
        try:
            cpu, stdout, codes = replay(workload, cli)
        finally:
            tracer.uninstall()
        traced.append(cpu)
        rounds.record(codes)
        per_round.append(layer_metrics(tracer.summary(cpu), tracer.counts,
                                       tracer.rss_highwater_mb))
        rounds.end_round(stdout)
    metrics = {key: (statistics.median(r[key] for r in per_round), UNITS.get(key, "s"))
               for key in per_round[0]}
    metrics["cli.startup_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    with open(workload.work / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "untraced_cpu_s": plain, "traced_cpu_s": traced,
                   "call_tree": tracer.call_tree()}, fh, indent=1)
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs run each workload end to end in seconds")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "pdcm" / "cli.py", ROOT / "data" / "degrees_10k.txt")
               if not p.is_file()]
    if missing:
        print(f"run.py: not a pdcm checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.size == "tiny")
    children = Children(work)
    run = run_traced if args.trace else run_untraced
    rounds, metrics = run(workload, children, args.seconds)
    correct = rounds.repeatable
    if not correct:
        print("run.py: check failed: a round's outputs differ from the first round's",
              file=sys.stderr)
    try:
        workload.check(rounds.stdout, children.checked_pdcm)
    except (checks.CheckFailed, OSError, ValueError, KeyError):
        traceback.print_exc()
        print("run.py: check failed", file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
