"""Reproducible experiment grids over the generation pipeline.

One experiment = one model/coupling pair swept over a grid of graph
sizes with R replicates per size.  Every (size, replicate) cell gets its
own stream seed

    cell_seed = base_seed XOR splitmix64(size_index * 2^32 + replicate)

(see rng.replicate_seed), and inside a cell the sampling and matching
stages split that seed again via derive_seed(cell_seed, 0) and
derive_seed(cell_seed, 1).  Cells are therefore independent of execution
order: serial and parallel runs write byte-identical CSVs.

Output rows follow metrics.CSV_COLUMNS.  Runs are resumable -- cells
whose (n, seed) key already appears in the output file are skipped and
their rows kept verbatim; the file is rewritten sorted by (n, seed).
"""
from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

from .degrees import (
    COUPLINGS,
    MODELS,
    JointDegreeDistribution,
    check_vertex_count,
    load_degree_file,
    sample_sequence,
)
from .matching import match_stubs
from .metrics import (
    CSV_COLUMNS,
    degree_census,
    erased_per_vertex,
    proportion_directed,
    total_variation,
)
from .rng import derive_seed, replicate_seed
from .simplify import simplify

#: Fig.-style default grid, log-spaced decades.
DEFAULT_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)

# config-file keys, all optional, mirroring the CLI flag names
CONFIG_KEYS = (
    "model", "coupling", "lambda", "gamma", "degrees",
    "sizes", "replicates", "seed", "output", "jobs",
)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "poisson"
    coupling: str = "independent"
    lam: float = 7.0
    gamma: float = 2.5
    degrees: str | None = None     # triple file, required for model=empirical
    sizes: tuple = DEFAULT_SIZES
    replicates: int = 100
    seed: int = 0
    output: str = "metrics.csv"
    jobs: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.coupling not in COUPLINGS:
            raise ValueError(
                f"unknown coupling {self.coupling!r}; expected one of {COUPLINGS}"
            )
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("sizes must be a non-empty list of positive integers")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        check_vertex_count(sizes[-1])
        object.__setattr__(self, "sizes", sizes)
        if self.replicates < 1:
            raise ValueError("need replicates >= 1")
        if self.jobs < 1:
            raise ValueError("need jobs >= 1")
        if self.model == "empirical" and not self.degrees:
            raise ValueError("model=empirical needs a degree file (degrees=...)")

    def distribution(self) -> JointDegreeDistribution:
        if self.model == "poisson":
            return JointDegreeDistribution.poisson(self.lam, self.coupling)
        if self.model == "scale_free":
            return JointDegreeDistribution.scale_free(self.gamma, self.coupling)
        return JointDegreeDistribution.empirical(
            load_degree_file(self.degrees), self.coupling
        )

    def model_label(self) -> str:
        """The string written to the CSV model column."""
        if self.model == "poisson":
            return f"poisson({self.lam:g})"
        if self.model == "scale_free":
            return f"scale_free({self.gamma:g})"
        return "empirical"

    def cell_seed(self, size_index: int, replicate: int) -> int:
        return replicate_seed(self.seed, size_index, replicate)

    def grid(self):
        """All (n, cell_seed) cells, in size-major replicate-minor order."""
        for s, n in enumerate(self.sizes):
            for r in range(self.replicates):
                yield n, self.cell_seed(s, r)


def _config_value(key: str, value: str):
    """One setting converted from its string form (file value or flag)."""
    if key in ("lambda", "gamma"):
        return float(value)
    if key in ("replicates", "seed", "jobs"):
        return int(value)
    if key == "sizes":
        parts = value.replace(",", " ").split()
        if not parts:
            raise ValueError("sizes must list at least one integer")
        return tuple(int(p) for p in parts)
    if key in ("model", "coupling", "degrees", "output"):
        return value
    raise ValueError(f"unknown config key {key!r}")


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; later keys win.
    Values are checked where their line is known, and kept as strings."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}: line {lineno}: unknown key {key!r}; "
                    f"expected one of {CONFIG_KEYS}"
                )
            try:
                _config_value(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from None
            mapping[key] = value
    return mapping


def config_from_mapping(mapping) -> ExperimentConfig:
    """Build a config from string-valued settings (file values and/or
    flag overrides, already merged -- flags simply overwrite file keys)."""
    return ExperimentConfig(**{("lam" if key == "lambda" else key):
                               _config_value(key, str(value))
                               for key, value in mapping.items()})


def run_cell(dist: JointDegreeDistribution, model_label: str, coupling: str,
             n: int, cell_seed: int) -> dict:
    """One replicate: sample degrees, match stubs, simplify, measure."""
    seq = sample_sequence(dist, n, derive_seed(cell_seed, 0))
    g, report = simplify(match_stubs(seq, derive_seed(cell_seed, 1)))
    row = {
        "model": model_label,
        "coupling": coupling,
        "n": n,
        "seed": cell_seed,
        "d_tv": total_variation(degree_census(g), dist),
        "modified_per_vertex": report.modified_vertices / n,
    }
    row.update(erased_per_vertex(report, n))
    row["prop_directed"] = proportion_directed(g)
    return row


_worker_experiment = None  # (dist, label, coupling), set in each pool worker


def _init_worker(*experiment):
    """Take the law once per worker, so its atom table is built once."""
    global _worker_experiment
    _worker_experiment = experiment


def _cell_task(cell):
    return run_cell(*_worker_experiment, *cell)


def _format_row(row: dict) -> list:
    out = []
    for col in CSV_COLUMNS:
        v = row[col]
        out.append(repr(v) if isinstance(v, float) else str(v))
    return out


def _read_completed(path) -> dict:
    """(n, seed) -> raw string row, for every row already in the file."""
    completed = {}
    if not os.path.exists(path):
        return completed
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ValueError(
                f"{path}: line 1: existing output has a different column "
                "layout; refusing to resume into it"
            )
        for row in reader:
            try:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"malformed row {row!r}")
                completed[(int(row[2]), int(row[3]))] = row
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return completed


def run_experiment(config: ExperimentConfig, log=None) -> tuple:
    """Fill in every missing grid cell and rewrite the output CSV.

    Returns (ran, skipped) cell counts.  ``log``, if given, is called
    with one progress line per computed cell.
    """
    dist = config.distribution()
    label = config.model_label()
    completed = _read_completed(config.output)
    grid = list(config.grid())
    pending = [cell for cell in grid if cell not in completed]

    rows = dict(completed)
    with ExitStack() as stack:
        if config.jobs == 1 or len(pending) <= 1:
            results = (run_cell(dist, label, config.coupling, *cell) for cell in pending)
        else:
            # the fork start method launches every worker at the first submit
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(config.jobs, len(pending)), initializer=_init_worker,
                initargs=(dist, label, config.coupling)))
            results = pool.map(_cell_task, pending)
        for done, ((n, cs), row) in enumerate(zip(pending, results), start=1):
            rows[(n, cs)] = _format_row(row)
            if log is not None:
                log(f"[{done}/{len(pending)}] n={n} seed={cs}")

    tmp = str(config.output) + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for key in sorted(rows):
            writer.writerow(rows[key])
    os.replace(tmp, config.output)
    return len(pending), len(grid) - len(pending)
