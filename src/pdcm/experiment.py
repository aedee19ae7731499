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
their rows kept verbatim.  Each computed row is appended to the file as
it finishes, so a stopped run keeps every row it finished; a run that
completes rewrites the file sorted by (n, seed).  A file holding a row of
another model or coupling is refused, since its cells are not this run's.
"""
from __future__ import annotations

import csv
import io
import operator
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest

from .degrees import (
    COUPLINGS,
    MODELS,
    JointDegreeDistribution,
    check_gamma,
    check_lambda,
    check_vertex_count,
    load_degree_file,
    sample_sequence,
)
from .matching import match_stubs
from .metrics import (
    CSV_COLUMNS,
    degree_census,
    proportion_directed,
    total_variation,
)
from .rng import derive_seed, replicate_seed
from .simplify import simplify

#: Fig.-style default grid, log-spaced decades.
DEFAULT_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)

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
        for key, field in zip(CONFIG_KEYS, fields(self)):
            object.__setattr__(self, field.name, _checked(key, getattr(self, field.name)))
        if self.model == "empirical" and not self.degrees:
            raise ValueError("model=empirical needs a degree file: --degrees FILE, "
                             "or degrees = FILE in a config file")

    def distribution(self) -> JointDegreeDistribution:
        if self.model == "poisson":
            return JointDegreeDistribution.poisson(self.lam, self.coupling)
        if self.model == "scale_free":
            return JointDegreeDistribution.scale_free(self.gamma, self.coupling)
        return JointDegreeDistribution.empirical(
            load_degree_file(self.degrees), self.coupling
        )

    def grid(self):
        """All (n, cell_seed) cells, in size-major replicate-minor order."""
        for s, n in enumerate(self.sizes):
            for r in range(self.replicates):
                yield n, replicate_seed(self.seed, s, r)


# config-file keys, all optional, mirroring the CLI flag names: lam is lambda
CONFIG_KEYS = tuple("lambda" if field.name == "lam" else field.name
                    for field in fields(ExperimentConfig))


def _number(x: float) -> str:
    """x in :g form where that reads back as x, else in full (repr)."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def model_label(dist: JointDegreeDistribution) -> str:
    """The string written to the CSV model column.  An empirical law is
    named by the first 12 hex digits of the sha256 of its int64 triples in
    file order, so that resume can tell two degree files apart."""
    if dist.kind == "poisson":
        return f"poisson({_number(dist.lam)})"
    if dist.kind == "scale_free":
        return f"scale_free({_number(dist.gamma)})"
    # imported here: hashlib loads OpenSSL, about 3.6 MB of every process's peak
    import hashlib

    rows = dist.triples.astype("<i8", copy=False).tobytes()
    return f"empirical:{hashlib.sha256(rows).hexdigest()[:12]}"


def _checked(key: str, value):
    """The value of setting key, converted and range-checked: the one
    check of each setting, for config fields, file lines and flags alike.
    A str is the setting's text form and is converted first."""
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown key {key!r}; expected one of {CONFIG_KEYS}")
    if isinstance(value, str):
        if key in ("lambda", "gamma"):
            value = float(value)
        elif key in ("replicates", "seed", "jobs"):
            value = int(value)
        elif key == "sizes":
            try:
                value = [int(p) for p in value.replace(",", " ").split()]
            except ValueError:
                raise ValueError(f"sizes must be integers, got {value!r}") from None
    if key in ("sizes", "replicates", "seed", "jobs"):  # a count, never a float
        try:
            if key == "sizes":
                value = tuple(operator.index(n) for n in value)
            else:
                value = operator.index(value)
        except TypeError:
            kind = "integers" if key == "sizes" else "an integer"
            raise ValueError(f"{key} must be {kind}, got {value!r}") from None
    if key == "model" and value not in MODELS:
        raise ValueError(f"unknown model {value!r}; expected one of {MODELS}")
    if key == "coupling" and value not in COUPLINGS:
        raise ValueError(f"unknown coupling {value!r}; expected one of {COUPLINGS}")
    if key == "lambda":
        return check_lambda(value)
    if key == "gamma":
        return check_gamma(value)
    if key == "sizes":
        if not value or any(n < 1 for n in value):
            raise ValueError("sizes must be a non-empty list of positive integers")
        if any(b <= a for a, b in zip(value, value[1:])):
            raise ValueError("sizes must be strictly increasing")
        check_vertex_count(value[-1])
    if key == "seed" and not 0 <= value < 2**64:
        raise ValueError(f"seed must lie in 0..2^64 - 1, got {value}")
    if key in ("replicates", "jobs") and value < 1:
        raise ValueError(f"need {key} >= 1")
    return value


def _read_text(path, newline) -> io.StringIO:
    """The file at path decoded as UTF-8, its lines split as open() with
    this newline splits them; a byte that is not UTF-8 is a ValueError
    naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at LF, CRLF and CR alone, as both readers do
        lineno = len(data[:exc.start + 1].splitlines())
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; later keys win.
    Values are checked where their line is known, and kept as strings."""
    mapping = {}
    for lineno, raw in enumerate(_read_text(path, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        try:
            _checked(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from None
        mapping[key] = value
    return mapping


def config_from_mapping(mapping) -> ExperimentConfig:
    """Build a config from config-file keys, each set to its text or its
    value (file values and flag overrides, merged: a flag overwrites a file key)."""
    return ExperimentConfig(**{("lam" if key == "lambda" else key): _checked(key, value)
                               for key, value in mapping.items()})


def sample_graph(dist: JointDegreeDistribution, n: int, seed: int):
    """``(SimpleGraph, ErasureReport)``: sample n degree triples of the law,
    match their stubs and simplify, the first two on the streams
    derive_seed(seed, 0) and derive_seed(seed, 1)."""
    seq = sample_sequence(dist, n, derive_seed(seed, 0))
    return simplify(match_stubs(seq, derive_seed(seed, 1)))


def run_cell(dist: JointDegreeDistribution, label: str, n: int,
             cell_seed: int) -> dict:
    """One replicate: sample a graph and measure it."""
    g, report = sample_graph(dist, n, cell_seed)
    row = {
        "model": label,
        "coupling": dist.coupling,
        "n": n,
        "seed": cell_seed,
        "d_tv": total_variation(degree_census(g), dist),
    }
    row.update({key: value / n for key, value in asdict(report).items()})
    row["prop_directed"] = proportion_directed(g)
    return row


_worker_experiment = None  # (dist, label), set in each pool worker


def _init_worker(*experiment):
    """Take the law once per worker, so its cached tables are built once."""
    global _worker_experiment
    _worker_experiment = experiment


def _cell_task(cell):
    return run_cell(*_worker_experiment, *cell)


def _read_completed(path, label: str, coupling: str) -> dict:
    """(n, seed) -> raw string row, for every row already in the file;
    a row of another model or coupling than (label, coupling) is refused."""
    completed = {}
    if not os.path.exists(path):
        return completed
    reader = csv.reader(_read_text(path, newline=""))
    header = next(reader, [])
    if header != list(CSV_COLUMNS):
        # name the first column that differs, where an older layout parts from this one
        col, pair = next((i, pair) for i, pair in enumerate(
            zip_longest(header, CSV_COLUMNS), start=1) if pair[0] != pair[1])
        got, want = ("no column" if name is None else repr(name) for name in pair)
        raise ValueError(f"{path}: line 1: existing output has a different column layout: "
                         f"column {col} is {got}, expected {want}; refusing to resume into it")
    for row in reader:
        try:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"malformed row {row!r}")
            if row[:2] != [label, coupling]:
                raise ValueError(f"existing row is for {row[0]} {row[1]}, not "
                                 f"{label} {coupling}; refusing to resume into it")
            completed[(int(row[2]), int(row[3]))] = row
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return completed


def _write_sorted(path, rows: dict) -> None:
    """Replace the CSV at path, via path.tmp, by the header and sorted rows."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for key in sorted(rows):
            writer.writerow(rows[key])
    os.replace(tmp, path)


def run_experiment(config: ExperimentConfig, log=None) -> tuple:
    """Fill in every missing grid cell, appending each row to the output
    CSV as it finishes, and rewrite the CSV sorted.

    Returns (ran, skipped) cell counts.  ``log``, if given, is called
    with one progress line per computed cell, after its row is written.
    """
    dist = config.distribution()
    label = model_label(dist)
    completed = _read_completed(config.output, label, config.coupling)
    grid = list(config.grid())
    pending = [cell for cell in grid if cell not in completed]

    rows = dict(completed)
    # header and kept rows, each line ended, so the appends below start a line
    _write_sorted(config.output, rows)
    with ExitStack() as stack:
        out = stack.enter_context(open(config.output, "a", newline="", encoding="utf-8"))
        writer = csv.writer(out)
        if config.jobs == 1 or len(pending) <= 1:
            results = (run_cell(dist, label, *cell) for cell in pending)
        else:
            # imported here so that a run without a pool never loads multiprocessing;
            # the fork start method launches every worker at the first submit
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(
                max_workers=min(config.jobs, len(pending)), initializer=_init_worker,
                initargs=(dist, label))
            # its one shutdown, also at a stop: cancels the queued cells, waits for the running
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_cell_task, pending)
        for done, ((n, cs), row) in enumerate(zip(pending, results), start=1):
            rows[(n, cs)] = [row[col] for col in CSV_COLUMNS]
            writer.writerow(rows[(n, cs)])
            out.flush()
            if log is not None:
                log(f"[{done}/{len(pending)}] n={n} seed={cs}")

    _write_sorted(config.output, rows)
    return len(pending), len(grid) - len(pending)
