"""The four workloads: their inputs, the pdcm commands of one round, and
the checks of what those commands wrote.

Every round of a workload runs the same commands on the same inputs, so
its outputs must repeat byte for byte; the inputs change with --seed.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import checks
import snaplike


class Workload:
    """Inputs in `work`, commands as `pdcm` argument lists, checks."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny

    def path(self, name: str) -> str:
        return str(self.work / name)

    def build_inputs(self) -> None:
        """Write the round's input files (timed as part of setup_s)."""

    def commands(self, traced: bool) -> list:
        """[(label, argv)] of one round, in order."""
        raise NotImplementedError

    def outputs(self) -> list:
        """Files a round writes; removed before each round."""
        return []

    def check(self, stdout: dict, run_pdcm) -> None:
        """Raise checks.CheckFailed unless the round's outputs are right.

        `run_pdcm(argv)` runs one more, untimed command and returns its
        standard output."""
        raise NotImplementedError

    def detail(self, times: dict) -> dict:
        """Workload-specific figures of one round from the CPU seconds of
        each command: name -> (value, unit)."""
        return {}

    def read_text(self, name: str) -> str:
        with open(self.work / name, encoding="utf-8") as fh:
            return fh.read()


class GenerateLarge(Workload):
    """The ROADMAP headline command, `generate` Poisson(7) with independent
    coupling then `components`, scaled down: simplify, the pdgraph write
    and read, and memory."""

    name = "generate_large"
    LAMBDA = 7

    @property
    def n(self) -> int:
        return 3_000 if self.tiny else 100_000

    def commands(self, traced):
        return [
            ("generate", ["generate", "--model", "poisson", "--lambda", str(self.LAMBDA),
                          "--coupling", "independent", "--n", str(self.n),
                          "--seed", str(self.seed), "--output", self.path("g.pdgraph"),
                          "--report", self.path("g.json")]),
            ("components", ["components", "--input", self.path("g.pdgraph"),
                            "--output", self.path("g_components.csv")]),
        ]

    def outputs(self):
        return ["g.pdgraph", "g.json", "g_components.csv"]

    def check(self, stdout, run_pdcm):
        n, dirs, unds = checks.read_pdgraph(self.path("g.pdgraph"))
        checks.require(n == self.n, f"pdgraph n={n} != {self.n}")
        report = json.loads(self.read_text("g.json"))
        drawn = checks.drawn_poisson_triples(n, self.LAMBDA, self.seed)
        checks.check_generated(n, dirs, unds, drawn, report, self.LAMBDA)
        checks.check_components(n, dirs, unds, json.loads(stdout["components"]),
                                self.read_text("g_components.csv"))

    def detail(self, times):
        return {"generate_s": (times["generate"], "s"),
                "components_s": (times["components"], "s")}


class SweepEmpirical(Workload):
    """`experiment` on data/degrees_10k.txt, dependent coupling, serial and
    with --jobs 2: many small cells, so per-call overhead, the census and
    d_tv, and the orchestration."""

    name = "sweep_empirical"

    @property
    def sizes(self) -> tuple:
        return (100, 1000) if self.tiny else (100, 1000, 10000)

    @property
    def replicates(self) -> int:
        return 3 if self.tiny else 12

    @property
    def degrees(self) -> str:
        return str(self.root / "data" / "degrees_10k.txt")

    def build_inputs(self):
        with open(self.work / "sweep.cfg", "w", encoding="utf-8") as fh:
            fh.write(f"model = empirical\ncoupling = dependent\ndegrees = {self.degrees}\n"
                     f"sizes = {', '.join(map(str, self.sizes))}\n"
                     f"replicates = {self.replicates}\nseed = {self.seed}\n")

    def commands(self, traced):
        base = ["experiment", "--config", self.path("sweep.cfg"), "--quiet"]
        # the traced replay runs in one process, so its second sweep is serial too
        jobs = "1" if traced else "2"
        return [("serial", base + ["--output", self.path("serial.csv")]),
                ("parallel", base + ["--output", self.path("parallel.csv"), "--jobs", jobs])]

    def outputs(self):
        return ["serial.csv", "parallel.csv"]

    def check(self, stdout, run_pdcm):
        rows = checks.check_sweep(self.read_text("serial.csv"), self.read_text("parallel.csv"),
                                  self.sizes, self.replicates, self.seed)
        law = checks.read_degree_file(self.degrees)
        for s in range(1, len(self.sizes)):
            n = self.sizes[s]
            cs = checks.cell_seed(self.seed, s, (self.seed + s) % self.replicates)
            run_pdcm(["generate", "--model", "empirical", "--degrees", self.degrees,
                      "--coupling", "dependent", "--n", str(n), "--seed", str(cs),
                      "--output", self.path("cell.pdgraph"), "--report", self.path("cell.json")])
            cell_n, dirs, unds = checks.read_pdgraph(self.path("cell.pdgraph"))
            checks.require(cell_n == n, f"regenerated cell has n={cell_n}, not {n}")
            checks.check_regenerated_cell(rows[(n, cs)], n, dirs, unds,
                                          json.loads(self.read_text("cell.json")), law)

    @property
    def cells(self) -> int:
        return len(self.sizes) * self.replicates

    def detail(self, times):
        return {"sweep_cells_per_s": (self.cells / times["serial"], "cells/s"),
                "sweep_parallel_cells_per_s": (self.cells / times["parallel"], "cells/s")}


# (file, spec lines, exact value when derived by hand)
ORACLE_SPECS = (
    # three (1,1,0) vertices: the tagged in-stub misses its own out-stub
    # (2/3), then its out-stub misses the vertex the in-arc came from (1/2)
    ("triangle.txt", ["1 1 0"] * 3, Fraction(1, 3)),
    # 31 vertices with every stub type: a value strictly between 0 and 1
    ("mixed.txt", ["2 1 2"] + [f"{i % 3} {(i * 2 + 1) % 3} {(i % 4) // 2 + (i % 5 == 0)}"
                               for i in range(30)], None),
    # only vertex 2 owns out-stubs and has no undirected stub, and the
    # tagged vertex has one undirected stub: it keeps (1,0,1) every time
    ("certain.txt", ["1 0 1", "0 2 0", "1 0 0", "0 0 1", "0 0 2", "0 0 2"], Fraction(1)),
)


class OracleBattery(Workload):
    """`oracle` on three fixed specs: saveprob, one PCG64 generator per
    replicate, and simplify on many tiny blocks of one disjoint union."""

    name = "oracle_battery"

    @property
    def replicates(self) -> dict:
        full = {"triangle.txt": 40_000, "mixed.txt": 10_000, "certain.txt": 20_000}
        return {k: v // 20 for k, v in full.items()} if self.tiny else full

    def build_inputs(self):
        for name, lines, _ in ORACLE_SPECS:
            with open(self.work / name, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

    def commands(self, traced):
        return [(name, ["oracle", "--spec", self.path(name), "--seed", str(self.seed),
                        "--replicates", str(self.replicates[name])])
                for name, _, _ in ORACLE_SPECS]

    def check(self, stdout, run_pdcm):
        for name, _, exact in ORACLE_SPECS:
            checks.check_oracle(json.loads(stdout[name]), self.replicates[name], exact)

    def detail(self, times):
        total = sum(self.replicates.values())
        return {"oracle_replicates_per_s": (total / sum(times.values()), "replicates/s")}


class IngestSnaplike(Workload):
    """`ingest` of a seeded SNAP-like gzipped edge list, then `components`:
    the only user of parse_edge_list and of classify on raw arcs."""

    name = "ingest_snaplike"

    def build_inputs(self):
        nodes, edges = (300, 1_500) if self.tiny else (40_000, 230_000)
        self.graph = snaplike.make_edge_list(nodes, edges, self.seed)
        snaplike.write_edge_list(self.graph, self.work / "edges.txt.gz")

    def commands(self, traced):
        return [
            ("ingest", ["ingest", "--input", self.path("edges.txt.gz"),
                        "--output", self.path("snap.pdgraph")]),
            ("components", ["components", "--input", self.path("snap.pdgraph"),
                            "--output", self.path("snap_components.csv")]),
        ]

    def outputs(self):
        return ["snap.pdgraph", "snap_components.csv"]

    def check(self, stdout, run_pdcm):
        n, dirs, unds = checks.read_pdgraph(self.path("snap.pdgraph"))
        checks.check_ingest(json.loads(stdout["ingest"]), snaplike.ground_truth(self.graph),
                            n, dirs, unds)
        checks.check_components(n, dirs, unds, json.loads(stdout["components"]),
                                self.read_text("snap_components.csv"))

    def detail(self, times):
        return {"ingest_s": (times["ingest"], "s"),
                "components_s": (times["components"], "s")}


WORKLOADS = {w.name: w for w in (GenerateLarge, SweepEmpirical, OracleBattery, IngestSnaplike)}
