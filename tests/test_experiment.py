"""Experiment grid: config parsing, seed derivation, resumable CSV."""

import csv
import hashlib
import multiprocessing
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pdcm.degrees import JointDegreeDistribution, sample_sequence
from pdcm.experiment import (
    CONFIG_KEYS,
    DEFAULT_SIZES,
    ExperimentConfig,
    config_from_mapping,
    model_label,
    parse_config_file,
    run_cell,
    run_experiment,
)
from pdcm.matching import match_stubs
from pdcm.metrics import CSV_COLUMNS, degree_census, total_variation
from pdcm.rng import derive_seed, make_generator, replicate_seed, splitmix64
from pdcm.simplify import simplify


class TestSeedDerivation:
    def test_splitmix64_reference_vector(self):
        """First outputs of the reference splitmix64 stream seeded with 0
        (Steele, Lea & Flood 2014; same constants as Vigna's C version)."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1
        assert splitmix64(2) == 0x975835DE1C9756CE

    def test_replicate_seed_rule(self):
        # documented rule: base XOR splitmix64(size_index * 2^32 + replicate)
        assert replicate_seed(42, 0, 2) == 42 ^ splitmix64(2)
        assert replicate_seed(0, 1, 0) == splitmix64(1 << 32)
        assert replicate_seed(0, 3, 17) == splitmix64((3 << 32) | 17)

    def test_replicate_seed_cells_distinct(self):
        seeds = {replicate_seed(7, s, r) for s in range(8) for r in range(200)}
        assert len(seeds) == 8 * 200

    def test_derive_seed_folds_indices(self):
        assert derive_seed(7, 0) == splitmix64(7 ^ splitmix64(0))
        assert derive_seed(7, 0, 1) == splitmix64(derive_seed(7, 0) ^ splitmix64(1))
        assert derive_seed(7, 0) != derive_seed(7, 1)

    def test_make_generator_deterministic(self):
        a = make_generator(123).integers(0, 1 << 62, 5)
        b = make_generator(123).integers(0, 1 << 62, 5)
        assert a.tolist() == b.tolist()


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.sizes == DEFAULT_SIZES == (100, 1000, 10_000, 100_000, 1_000_000)
        assert c.replicates == 100
        assert c.jobs == 1

    def test_rejects_bad_model_and_coupling(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(model="uniform")
        with pytest.raises(ValueError, match="coupling"):
            ExperimentConfig(coupling="sideways")

    def test_sizes_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(sizes=(100, 100))
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(sizes=(1000, 100))
        with pytest.raises(ValueError, match="positive"):
            ExperimentConfig(sizes=())

    def test_sizes_within_vertex_limit(self):
        assert ExperimentConfig(sizes=(2**31,)).sizes == (2**31,)
        with pytest.raises(ValueError, match="limit"):
            ExperimentConfig(sizes=(10, 2**31 + 1))

    def test_replicates_and_jobs_positive(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig(replicates=0)
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig(jobs=0)

    def test_empirical_needs_degree_file(self):
        with pytest.raises(ValueError, match="degree file"):
            ExperimentConfig(model="empirical")

    def test_grid_uses_documented_seeds(self):
        c = ExperimentConfig(sizes=(10, 20), replicates=2, seed=9)
        assert list(c.grid()) == [
            (10, replicate_seed(9, 0, 0)),
            (10, replicate_seed(9, 0, 1)),
            (20, replicate_seed(9, 1, 0)),
            (20, replicate_seed(9, 1, 1)),
        ]

    def test_distribution_construction(self):
        assert ExperimentConfig(model="poisson", lam=3.0).distribution().lam == 3.0
        d = ExperimentConfig(model="scale_free", gamma=2.5,
                             coupling="dependent").distribution()
        assert d.gamma == 2.5 and d.coupling == "dependent"

    def test_model_label(self, tmp_path):
        """A parameter is written in :g form where that reads back, else in
        full.  An empirical law is named by the sha256 of its int64 triples
        in file order: another layout of the same rows keeps the label, and
        another order of them changes it."""
        assert model_label(ExperimentConfig(lam=7.0).distribution()) == "poisson(7)"
        assert model_label(ExperimentConfig(model="scale_free",
                                            gamma=2.5).distribution()) == "scale_free(2.5)"
        for lam, label in ((7.0000001, "poisson(7.0000001)"), (1234567.0, "poisson(1234567.0)"),
                           (1234568.0, "poisson(1234568.0)"), (1e-5, "poisson(1e-05)")):
            assert model_label(ExperimentConfig(lam=lam).distribution()) == label
        texts = ("1 1 0\n0 0 2\n", "# two rows\n1  1 0\n\n0\t0 2", "0 0 2\n1 1 0\n")
        labels = []
        for i, text in enumerate(texts):
            (tmp_path / f"{i}.txt").write_text(text)
            labels.append(model_label(ExperimentConfig(
                model="empirical", degrees=str(tmp_path / f"{i}.txt")).distribution()))
        rows = np.array([[1, 1, 0], [0, 0, 2]], dtype="<i8").tobytes()
        assert labels[0] == labels[1] == f"empirical:{hashlib.sha256(rows).hexdigest()[:12]}"
        assert labels[2] != labels[0]


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# sweep\nmodel = poisson\nlambda = 6.5\ncoupling = dependent\n"
            "\nsizes = 100, 1000\nreplicates = 5\nseed = 3\n"
            "output = out.csv  # trailing comment\njobs = 2\n"
        )
        c = config_from_mapping(parse_config_file(p))
        assert c == ExperimentConfig(
            model="poisson", lam=6.5, coupling="dependent", sizes=(100, 1000),
            replicates=5, seed=3, output="out.csv", jobs=2,
        )

    def test_later_keys_win(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("seed = 1\nseed = 2\n")
        assert parse_config_file(p)["seed"] == "2"

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("model = poisson\nspeed = 11\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(p)

    @pytest.mark.parametrize("line,what", [
        ("gamma = nan", "gamma: gamma must be a finite number, not nan"),
        ("gamma = 1.5", "gamma: gamma must exceed 2 so the mean degree is finite"),
        ("lambda = nan", "lambda: lambda must be a finite number, not nan"),
        ("model = uniform", "model: unknown model 'uniform'; expected one of "
                            "('poisson', 'scale_free', 'empirical')"),
        ("coupling = sideways", "coupling: unknown coupling 'sideways'; expected "
                                "one of ('independent', 'dependent')"),
        ("sizes = 100, 10", "sizes: sizes must be strictly increasing"),
        ("sizes = 0", "sizes: sizes must be a non-empty list of positive integers"),
        ("sizes = 100, 1e3", "sizes: sizes must be integers, got '100, 1e3'"),
        (f"sizes = 10 {2**31 + 1}", f"sizes: {2**31 + 1} vertices: the limit is "
                                    f"0..{2**31}, because vertex pairs are encoded "
                                    "as one int64 each"),
        ("replicates = 0", "replicates: need replicates >= 1"),
        ("jobs = 0", "jobs: need jobs >= 1"),
        ("seed = -1", "seed: seed must lie in 0..2^64 - 1, got -1"),
        (f"seed = {2**64}", f"seed: seed must lie in 0..2^64 - 1, got {2**64}"),
    ])
    def test_range_error_names_file_and_line(self, tmp_path, line, what):
        """A value out of its model's range is refused where its line is
        known, with the message the distribution itself gives."""
        p = tmp_path / "exp.cfg"
        p.write_text(f"model = scale_free\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(p)
        assert str(exc.value) == f"{p}: line 2: {what}"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, end):
        """A byte that is not UTF-8 is refused with its file and line,
        whichever line end the file uses; without it the file reads."""
        p = tmp_path / "bad.cfg"
        p.write_bytes(f"model = poisson{end}seed = 1".encode() + b"\xff" + end.encode())
        with pytest.raises(ValueError) as exc:
            parse_config_file(p)
        assert str(exc.value).startswith(f"{p}: line 2: 'utf-8' codec can't decode byte 0xff")
        p.write_bytes(f"model = poisson{end}seed = 1{end}".encode())
        assert parse_config_file(p) == {"model": "poisson", "seed": "1"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(p)

    def test_flag_overrides_are_plain_dict_updates(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("model = poisson\nseed = 1\n")
        mapping = parse_config_file(p)
        mapping.update({"seed": "99"})  # what the CLI does for set flags
        assert config_from_mapping(mapping).seed == 99

    def test_sizes_accept_commas_or_spaces(self):
        assert config_from_mapping({"sizes": "10,20,30"}).sizes == (10, 20, 30)
        assert config_from_mapping({"sizes": "10 20 30"}).sizes == (10, 20, 30)

    def test_text_and_value_give_one_config(self):
        """Each setting given as its text (a config line) and as the value
        argparse or a library caller makes builds the same config."""
        pairs = [
            ("model", "scale_free", "scale_free"),
            ("coupling", "dependent", "dependent"),
            ("lambda", "6.5", 6.5),
            ("gamma", "3.25", 3.25),
            ("degrees", "triples.txt", "triples.txt"),
            ("sizes", "10, 20", (10, 20)),
            ("sizes", "10 20 40", [10, 20, 40]),
            ("replicates", "5", 5),
            ("seed", str(2**64 - 1), 2**64 - 1),
            ("output", "out.csv", "out.csv"),
            ("jobs", "2", 2),
        ]
        assert {key for key, _, _ in pairs} == set(CONFIG_KEYS)
        for key, text, value in pairs:
            assert config_from_mapping({key: text}) == config_from_mapping({key: value})

    def test_fields_given_as_text_are_converted(self):
        assert (ExperimentConfig(lam="7", seed="3", sizes="10,20")
                == ExperimentConfig(lam=7.0, seed=3, sizes=(10, 20)))

    def test_field_text_that_is_no_number_is_a_value_error(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
            ExperimentConfig(lam="abc")
        with pytest.raises(ValueError, match="invalid literal for int"):
            ExperimentConfig(seed="3.0")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 3.5, "seed must be an integer, got 3.5"),
        ("replicates", 2.5, "replicates must be an integer, got 2.5"),
        ("jobs", 1.5, "jobs must be an integer, got 1.5"),
        ("sizes", (10.7, 20.2), "sizes must be integers, got (10.7, 20.2)"),
    ])
    def test_float_count_is_a_value_error(self, key, value, message):
        """A count given as a float is refused where the config is built,
        as a field and as a mapping value.  It is not truncated, nor left
        to fail in grid() or to reach the worker pool."""
        for build in (lambda: ExperimentConfig(**{key: value}),
                      lambda: config_from_mapping({key: value})):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_numpy_integer_counts_become_ints(self):
        c = ExperimentConfig(sizes=np.array([10, 20]), replicates=np.int32(2),
                             seed=np.uint64(2**64 - 1), jobs=np.int64(2))
        assert (c.sizes, c.replicates, c.seed, c.jobs) == ((10, 20), 2, 2**64 - 1, 2)
        assert {type(x) for x in (*c.sizes, c.replicates, c.seed, c.jobs)} == {int}


def small_config(tmp_path, **kw):
    kw.setdefault("model", "poisson")
    kw.setdefault("lam", 5.0)
    kw.setdefault("sizes", (30, 60))
    kw.setdefault("replicates", 3)
    kw.setdefault("seed", 11)
    kw.setdefault("output", str(tmp_path / "m.csv"))
    return ExperimentConfig(**kw)


class TestRunCell:
    def test_matches_hand_composed_pipeline(self):
        dist = JointDegreeDistribution.poisson(5.0, "independent")
        cs = replicate_seed(11, 0, 0)
        row = run_cell(dist, "poisson(5)", 200, cs)
        seq = sample_sequence(dist, 200, derive_seed(cs, 0))
        g, report = simplify(match_stubs(seq, derive_seed(cs, 1)))
        assert row["d_tv"] == total_variation(degree_census(g), dist)
        # one rate column per report field, each its count per vertex
        for field in fields(report):
            assert row[field.name] == getattr(report, field.name) / 200
        assert row["n"] == 200 and row["seed"] == cs

    def test_row_covers_schema(self):
        dist = JointDegreeDistribution.poisson(5.0, "independent")
        row = run_cell(dist, "poisson(5)", 50, 1)
        assert set(row) == set(CSV_COLUMNS)
        assert 0.0 <= row["d_tv"] <= 1.0


class TestRunExperiment:
    def test_full_grid_sorted_by_key(self, tmp_path):
        config = small_config(tmp_path)
        ran, skipped = run_experiment(config)
        assert (ran, skipped) == (6, 0)
        with open(config.output, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        keys = [(int(r[2]), int(r[3])) for r in rows[1:]]
        assert keys == sorted(keys)
        assert sorted(keys) == sorted(config.grid())

    def test_rerun_skips_everything_and_keeps_bytes(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        before = Path(config.output).read_bytes()
        ran, skipped = run_experiment(config)
        assert (ran, skipped) == (0, 6)
        assert Path(config.output).read_bytes() == before

    def test_resume_recomputes_only_missing_rows(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        before = Path(config.output).read_bytes()
        lines = before.decode().splitlines(keepends=True)
        Path(config.output).write_text("".join(lines[:3] + lines[4:]))  # drop a row
        ran, skipped = run_experiment(config)
        assert (ran, skipped) == (1, 5)
        assert Path(config.output).read_bytes() == before

    def test_extending_replicates_resumes(self, tmp_path):
        config = small_config(tmp_path, replicates=2)
        run_experiment(config)
        more = small_config(tmp_path, replicates=3)
        ran, skipped = run_experiment(more)
        assert (ran, skipped) == (2, 4)
        # and the result equals a fresh full run
        fresh = small_config(tmp_path, replicates=3,
                             output=str(tmp_path / "fresh.csv"))
        run_experiment(fresh)
        assert Path(more.output).read_bytes() == Path(fresh.output).read_bytes()

    def test_parallel_run_is_byte_identical(self, tmp_path):
        serial = small_config(tmp_path)
        run_experiment(serial)
        parallel = small_config(tmp_path, jobs=2,
                                output=str(tmp_path / "par.csv"))
        run_experiment(parallel)
        assert (Path(serial.output).read_bytes()
                == Path(parallel.output).read_bytes())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stopped_sweep_keeps_its_finished_rows(self, tmp_path, jobs):
        """A sweep stopped after 3 cells, as by Ctrl-C, has written those 3
        rows; the rerun finds them present and ends with the bytes of an
        uninterrupted run."""
        config = small_config(tmp_path, jobs=jobs)

        def stop_after_three(line):
            if line.startswith("[3/"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, log=stop_after_three)
        with open(config.output, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert [(int(r[2]), int(r[3])) for r in rows[1:]] == list(config.grid())[:3]
        assert run_experiment(config) == (3, 3)
        fresh = small_config(tmp_path, output=str(tmp_path / "fresh.csv"))
        run_experiment(fresh)
        assert Path(config.output).read_bytes() == Path(fresh.output).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="the workers must inherit the counting run_cell")
    def test_stopped_pool_sweep_cancels_its_queued_cells(self, tmp_path, monkeypatch):
        """A 12-cell --jobs 2 sweep stopped at its first row computes the
        finished, running and already dispatched cells, not the other
        queued ones; the rerun ends with the bytes of an uninterrupted run."""
        tally = tmp_path / "cells.txt"

        def counted_cell(*args):
            row = run_cell(*args)
            with open(tally, "a") as fh:
                fh.write(f"{args[-1]}\n")
            return row

        # installed before the pool forks, so its workers compute through it
        monkeypatch.setattr("pdcm.experiment.run_cell", counted_cell)
        config = small_config(tmp_path, sizes=(10**5,), replicates=12, jobs=2)

        def stop(line):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, log=stop)
        assert 1 <= len(tally.read_text().split()) <= 8
        run_experiment(config)
        fresh = small_config(tmp_path, sizes=(10**5,), replicates=12,
                             output=str(tmp_path / "fresh.csv"))
        run_experiment(fresh)
        assert Path(config.output).read_bytes() == Path(fresh.output).read_bytes()

    def test_stopped_sweep_after_a_row_without_line_end(self, tmp_path):
        """A kept last row that lacks its line end, as after a hand edit,
        is not joined by the next row appended to it."""
        config = small_config(tmp_path)
        run_experiment(config)
        before = Path(config.output).read_bytes()
        header, row = before.splitlines(keepends=True)[:2]
        Path(config.output).write_bytes(header + row.rstrip())

        def stop(line):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, log=stop)
        assert run_experiment(config) == (4, 2)
        assert Path(config.output).read_bytes() == before

    def test_pool_no_larger_than_pending_cells(self, tmp_path, monkeypatch):
        """Under fork every max_workers process starts at the first submit,
        so a resumed run with two cells left asks for two workers."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_experiment imports the pool class when it needs a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        config = small_config(tmp_path, jobs=8)
        run_experiment(small_config(tmp_path, replicates=2))
        assert run_experiment(config) == (2, 4)
        assert sizes == [2]
        fresh = small_config(tmp_path, output=str(tmp_path / "fresh.csv"))
        run_experiment(fresh)
        assert (Path(config.output).read_bytes()
                == Path(fresh.output).read_bytes())

    def test_foreign_schema_refused(self, tmp_path):
        config = small_config(tmp_path)
        Path(config.output).write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="column layout"):
            run_experiment(config)

    @pytest.mark.parametrize("header,column", [
        # the layout before modified_vertices / n was kept once
        (CSV_COLUMNS[:5] + ("modified_per_vertex",) + CSV_COLUMNS[5:],
         "column 6 is 'modified_per_vertex', expected 'unconnected_und'"),
        (CSV_COLUMNS[:-1], "column 15 is no column, expected 'prop_directed'"),
        (CSV_COLUMNS + ("extra",), "column 16 is 'extra', expected no column"),
        ((), "column 1 is no column, expected 'model'"),
    ], ids=["old-layout", "short", "long", "empty"])
    def test_layout_refusal_names_first_differing_column(self, tmp_path, header, column):
        config = small_config(tmp_path)
        Path(config.output).write_text(",".join(header) + "\n" if header else "")
        with pytest.raises(ValueError) as exc:
            run_experiment(config)
        assert str(exc.value) == (f"{config.output}: line 1: existing output has a "
                                  f"different column layout: {column}; refusing to "
                                  "resume into it")

    @pytest.mark.parametrize("rows,lineno", [
        ([("a", "b", "c")], 1),
        ([CSV_COLUMNS, ("poisson(5)", "independent", "30")], 2),
        ([CSV_COLUMNS] + [("poisson(5)", "independent", n, "1")
                          + ("0",) * (len(CSV_COLUMNS) - 4)
                          for n in ("30", "x")], 3),
        ([CSV_COLUMNS] + [(m, "c", "30", s) + ("0",) * (len(CSV_COLUMNS) - 4)
                          for m, s in (("m", "1"), ("m\xff", "2"))], 3),
    ], ids=["header", "short-row", "non-integer-n", "non-utf8"])
    def test_bad_resume_file_names_file_and_line(self, tmp_path, rows, lineno):
        config = small_config(tmp_path)
        # latin-1 writes "\xff" as the byte 0xff, which UTF-8 cannot decode;
        # the other rows are ASCII, so their bytes are as in UTF-8
        with open(config.output, "w", newline="", encoding="latin-1") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValueError, match=f"m.csv: line {lineno}: "):
            run_experiment(config)

    def test_log_line_per_cell(self, tmp_path):
        config = small_config(tmp_path, sizes=(20,), replicates=2)
        lines = []
        run_experiment(config, log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[1/2] n=20")

    def test_values_parse_back_exactly(self, tmp_path):
        """repr round-trip: the CSV keeps full float precision."""
        config = small_config(tmp_path, sizes=(40,), replicates=1)
        run_experiment(config)
        with open(config.output, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        cell = run_cell(config.distribution(), model_label(config.distribution()), 40,
                        replicate_seed(config.seed, 0, 0))
        for col in ("d_tv", "modified_vertices", "prop_directed"):
            assert float(row[col]) == cell[col]


def test_distortion_falls_with_size(tmp_path):
    """Coarse end-to-end sanity: mean distortion at n=1000 is below the
    n=100 mean for a Poisson(7) sweep with 5 seeds."""
    config = ExperimentConfig(
        model="poisson", lam=7.0, sizes=(100, 1000), replicates=5, seed=5,
        output=str(tmp_path / "trend.csv"),
    )
    run_experiment(config)
    with open(config.output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["n"]), []).append(float(r["d_tv"]))
    assert np.mean(by_n[1000]) < np.mean(by_n[100])
