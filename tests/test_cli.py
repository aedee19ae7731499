"""Front-end behaviour: flags, exit codes, output files, determinism."""

import csv
import gzip
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

import pdcm
import pdcm.components
from pdcm import saveprob
from pdcm.cli import main
from pdcm.ingest import read_pdgraph

FIXTURE = "data/fixture_edges.txt"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def child_env() -> dict:
    """This environment with the imported pdcm's directory first on
    PYTHONPATH, for a child interpreter."""
    src = str(Path(pdcm.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestGenerate:
    def test_poisson_dependent_has_no_unconnected_arcs(self, tmp_path, capsys):
        out = tmp_path / "g.pdgraph"
        rep = tmp_path / "g.json"
        rc, _, _ = run(capsys, "generate", "--model", "poisson", "--lambda", "7",
                       "--coupling", "dependent", "--n", "1000", "--seed", "1",
                       "--output", str(out), "--report", str(rep))
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["unconnected_dir"] == 0
        # one flat object, the ErasureReport fields in their order
        assert list(report) == [
            "unconnected_und", "unconnected_dir", "self_loops_dir", "self_loops_und",
            "parallel_dir", "parallel_und", "dir_parallel_to_und",
            "reciprocal_pairs_converted", "modified_vertices"]

    def test_single_atom_empirical_forces_two_undirected_edges(self, tmp_path, capsys):
        atom = tmp_path / "atom.txt"
        atom.write_text("0 0 1\n")
        out = tmp_path / "g.pdgraph"
        rc, _, _ = run(capsys, "generate", "--model", "empirical", "--degrees",
                       str(atom), "--n", "4", "--seed", "9",
                       "--output", str(out), "--report", str(tmp_path / "r.json"))
        assert rc == 0
        g = read_pdgraph(out)
        assert g.num_directed == 0 and g.num_undirected == 2

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        def once(tag):
            out = tmp_path / f"{tag}.pdgraph"
            rep = tmp_path / f"{tag}.json"
            rc, _, _ = run(capsys, "generate", "--model", "scale_free",
                           "--gamma", "2.5", "--n", "300", "--seed", "17",
                           "--output", str(out), "--report", str(rep))
            assert rc == 0
            return out.read_bytes(), rep.read_bytes()

        assert once("a") == once("b")

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--model", "poisson", "--seed", "1",
                  "--output", str(tmp_path / "g"), "--report", str(tmp_path / "r")])
        assert exc.value.code == 2

    def test_size_past_vertex_limit_is_runtime_error(self, tmp_path, capsys,
                                                     monkeypatch):
        """--n 2^31 + 1 exits 1 before any degree is drawn."""
        def no_generator(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr("pdcm.degrees.make_generator", no_generator)
        rc, _, err = run(capsys, "generate", "--n", str(2**31 + 1), "--seed", "1",
                         "--output", str(tmp_path / "g"),
                         "--report", str(tmp_path / "r"))
        assert rc == 1 and "limit" in err
        assert not (tmp_path / "g").exists()

    def test_zero_vertices_names_n(self, tmp_path, capsys):
        """--n is checked by degree sampling, not as an experiment's sizes."""
        rc, _, err = run(capsys, "generate", "--n", "0", "--seed", "1",
                         "--output", str(tmp_path / "g"),
                         "--report", str(tmp_path / "r"))
        assert rc == 1
        assert err == "pdcm: error: need n >= 1 vertices\n"

    @pytest.mark.parametrize("n", [10, 100])
    def test_stub_total_past_limit_is_runtime_error(self, tmp_path, capsys,
                                                    monkeypatch, n):
        """A stub total past 2^31 exits 1 with the total and the limit,
        before any stub array is built.  At n = 100 the total, 10^19 - 100,
        wraps around in an int64 sum."""
        def no_stub_arrays(seq):
            raise AssertionError("stub arrays were built")

        monkeypatch.setattr("pdcm.matching._stub_owners", no_stub_arrays)
        hub = tmp_path / "hub.txt"
        hub.write_text("0 0 99999999999999999\n")
        rc, _, err = run(capsys, "generate", "--model", "empirical",
                         "--coupling", "dependent", "--degrees", str(hub),
                         "--n", str(n), "--seed", "1",
                         "--output", str(tmp_path / "g"),
                         "--report", str(tmp_path / "r"))
        assert rc == 1
        assert f"{n * 99999999999999999} stubs" in err and str(2**31) in err
        assert not (tmp_path / "g").exists()

    def test_out_of_memory_is_runtime_error(self, tmp_path):
        """A size inside the vertex limit whose arrays do not fit in memory
        exits 1 with one line, not numpy's traceback.  The child caps its
        own address space at 3 GiB before it imports pdcm, so the 16 GiB
        Poisson draw fails at once; the cap acts on that child only."""
        capped = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                  "from pdcm.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", capped, "generate", "--model", "poisson",
             "--lambda", "7", "--coupling", "independent", "--n", str(2**31),
             "--seed", "1", "--output", str(tmp_path / "g"), "--report", str(tmp_path / "r")],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("pdcm: error: ") and proc.stderr.count("\n") == 1
        assert "allocate" in proc.stderr
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag,model", [("--gamma", "scale_free"),
                                            ("--lambda", "poisson")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_runtime_error(self, tmp_path, capsys,
                                                   flag, model, value):
        """Refused at entry with a message naming the value, before any
        draw; nothing is written."""
        out = tmp_path / "g.pdgraph"
        rc, _, err = run(capsys, "generate", "--model", model, flag, value,
                         "--n", "10", "--seed", "1", "--output", str(out),
                         "--report", str(tmp_path / "r.json"))
        assert rc == 1
        assert f"{flag[2:]} must be a finite number, not {value}" in err
        assert not out.exists()

    def test_lambda_past_stub_limit_is_runtime_error(self, tmp_path, capsys,
                                                     monkeypatch):
        """A finite --lambda above 2^31 exits 1 with pdcm's message, not
        numpy's, before any draw; nothing is written."""
        def no_generator(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr("pdcm.degrees.make_generator", no_generator)
        out = tmp_path / "g.pdgraph"
        rc, _, err = run(capsys, "generate", "--model", "poisson", "--lambda", "1e300",
                         "--n", "10", "--seed", "1", "--output", str(out),
                         "--report", str(tmp_path / "r.json"))
        assert rc == 1
        assert f"lambda must be at most {2**31}, the limit of stubs of one type" in err
        assert not out.exists()

    def test_empirical_without_degree_file_names_flag_and_config_key(self, tmp_path,
                                                                     capsys):
        out = tmp_path / "g.pdgraph"
        rc, _, err = run(capsys, "generate", "--model", "empirical", "--n", "4",
                         "--seed", "1", "--output", str(out),
                         "--report", str(tmp_path / "r.json"))
        assert rc == 1
        assert err == ("pdcm: error: model=empirical needs a degree file: "
                       "--degrees FILE, or degrees = FILE in a config file\n")
        assert not out.exists()

    def test_bad_degree_file_is_runtime_error(self, tmp_path, capsys):
        rc, _, err = run(capsys, "generate", "--model", "empirical",
                         "--degrees", str(tmp_path / "nope.txt"),
                         "--n", "4", "--seed", "1",
                         "--output", str(tmp_path / "g"),
                         "--report", str(tmp_path / "r"))
        assert rc == 1
        assert "error" in err


class TestIngest:
    def test_fixture_summary(self, capsys, tmp_path):
        out = tmp_path / "f.pdgraph"
        rc, stdout, _ = run(capsys, "ingest", "--input", FIXTURE,
                            "--output", str(out))
        assert rc == 0
        # one flat JSON line, the IngestStats fields in their order
        assert stdout == (
            '{"n": 6, "directed": 4, "undirected": 3, '
            '"proportion_directed": 0.5714285714285714, "self_arcs_dropped": 1, '
            '"duplicates_dropped": 1}\n')
        # the stored graph carries the same edges
        g = read_pdgraph(out)
        assert g.num_directed == 4 and g.num_undirected == 3

    def test_missing_input_is_runtime_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "ingest", "--input", str(tmp_path / "no.txt"))
        assert rc == 1 and "error" in err

    @pytest.mark.parametrize("damage,what", [
        ("truncated", "Compressed file ended before the end-of-stream marker"),
        ("not-gzip", "Not a gzipped file"),
        ("corrupt", "Error -3 while decompressing data: invalid block type"),
    ])
    def test_broken_gzip_names_the_file(self, capsys, tmp_path, damage, what):
        """An interrupted download, a plain list named .gz and a damaged
        deflate stream each exit 1 with the path, not a traceback."""
        body = gzip.compress(b"".join(b"%d %d\n" % (i, i + 1) for i in range(300)),
                             mtime=0)
        if damage == "truncated":
            body = body[:20]
        elif damage == "not-gzip":
            body = b"1 2\n2 3\n"
        else:
            body = body[:10] + b"\xff" + body[11:]  # reserved block type 3
        path = tmp_path / "edges.txt.gz"
        path.write_bytes(body)
        rc, _, err = run(capsys, "ingest", "--input", str(path))
        assert rc == 1
        assert err.startswith(f"pdcm: error: {path}: {what}")


class TestExperiment:
    def test_flags_only_run(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc, stdout, _ = run(capsys, "experiment", "--model", "poisson",
                            "--lambda", "5", "--sizes", "30,60",
                            "--replicates", "2", "--seed", "4",
                            "--output", str(out), "--quiet")
        assert rc == 0
        assert "4 cells computed" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 5 and lines[0].startswith("model,coupling,n,seed")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        out = tmp_path / "m.csv"
        cfg.write_text(
            f"model = poisson\nlambda = 5\nsizes = 30\nreplicates = 2\n"
            f"seed = 4\noutput = {out}\n"
        )
        rc, stdout, _ = run(capsys, "experiment", "--config", str(cfg),
                            "--replicates", "1", "--quiet")
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2  # header + 1 row

    def test_progress_lines_unless_quiet(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc, stdout, _ = run(capsys, "experiment", "--model", "poisson",
                            "--sizes", "20", "--replicates", "2",
                            "--seed", "1", "--output", str(out))
        assert rc == 0
        assert "[1/2] n=20" in stdout and "[2/2] n=20" in stdout

    def test_scale_free_at_large_gamma_has_finite_d_tv(self, tmp_path, capsys):
        """gamma = 2000 puts almost all mass on degree 1; its tail
        probabilities once came out nan and so did d_tv."""
        out = tmp_path / "m.csv"
        rc, _, _ = run(capsys, "experiment", "--model", "scale_free",
                       "--gamma", "2000", "--coupling", "independent",
                       "--sizes", "20", "--replicates", "1", "--seed", "1",
                       "--output", str(out), "--quiet")
        assert rc == 0
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert math.isfinite(float(row["d_tv"]))

    @pytest.mark.parametrize("other", [
        ("--model", "scale_free", "--gamma", "2.5", "--coupling", "dependent"),
        ("--model", "poisson", "--lambda", "6"),
        ("--model", "poisson", "--coupling", "dependent"),
        ("--model", "poisson", "--lambda", "5.0000001"),
    ], ids=["model", "parameter", "coupling", "parameter-past-6-digits"])
    def test_resume_into_another_models_rows_is_runtime_error(self, tmp_path,
                                                             capsys, other):
        """Resume keys cells on (n, seed), which two models share, so rows
        of another model or coupling are refused, not kept as this run's;
        so are those of a mean that agrees with this one to 6 digits."""
        out = tmp_path / "m.csv"
        grid = ("--sizes", "30,60", "--replicates", "2", "--seed", "4",
                "--output", str(out), "--quiet")
        rc, _, _ = run(capsys, "experiment", "--model", "poisson", "--lambda", "5",
                       *grid)
        assert rc == 0
        before = out.read_bytes()
        rc, stdout, err = run(capsys, "experiment", *other, *grid)
        assert rc == 1 and "cells computed" not in stdout
        assert f"{out}: line 2: existing row is for poisson(5) independent" in err
        assert out.read_bytes() == before

    def test_resume_with_another_degree_file_is_runtime_error(self, tmp_path, capsys):
        """Two empirical laws of one coupling differ in their model label,
        the digest of their triples, so a run on another degree file is
        refused rather than resumed into another law's rows."""
        out, other = tmp_path / "m.csv", tmp_path / "other.txt"
        other.write_text("1 1 0\n0 0 2\n")
        grid = ("--model", "empirical", "--coupling", "dependent", "--sizes", "30",
                "--replicates", "2", "--seed", "4", "--output", str(out), "--quiet")
        rc, _, _ = run(capsys, "experiment", "--degrees", "data/degrees_10k.txt", *grid)
        assert rc == 0
        before = out.read_bytes()
        label = out.read_text().splitlines()[1].split(",")[0]
        rc, stdout, err = run(capsys, "experiment", "--degrees", str(other), *grid)
        assert rc == 1 and "cells computed" not in stdout
        assert f"{out}: line 2: existing row is for {label} dependent, not empirical:" in err
        assert out.read_bytes() == before

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        rc, _, err = run(capsys, "experiment", "--model", "poisson",
                         "--sizes", "20", "--replicates", "1", "--seed", "1",
                         "--output", str(tmp_path / "no_dir" / "m.csv"))
        assert rc == 1 and "error" in err

    def test_empirical_config_without_degree_file_names_both_forms(self, tmp_path,
                                                                   capsys):
        cfg, out = tmp_path / "e.cfg", tmp_path / "m.csv"
        cfg.write_text(f"model = empirical\nsizes = 10\noutput = {out}\n")
        rc, _, err = run(capsys, "experiment", "--config", str(cfg), "--quiet")
        assert rc == 1
        assert err == ("pdcm: error: model=empirical needs a degree file: "
                       "--degrees FILE, or degrees = FILE in a config file\n")
        assert not out.exists()

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("velocity = 9\n")
        rc, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert rc == 1 and "velocity" in err

    def test_non_integer_sizes_names_the_setting(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc, _, err = run(capsys, "experiment", "--sizes", "100,1e3", "--output", str(out))
        assert rc == 1
        assert err == "pdcm: error: sizes must be integers, got '100,1e3'\n"
        assert not out.exists()


class TestComponents:
    def test_two_vertex_undirected_graph_is_one_component(self, tmp_path, capsys):
        p = tmp_path / "g.pdgraph"
        p.write_text("# pdgraph n=2\nU 1 2\n")
        rc, stdout, _ = run(capsys, "components", "--input", str(p),
                            "--output", str(tmp_path / "c.csv"))
        assert rc == 0
        summary = json.loads(stdout)
        assert summary == {"n": 2, "num_components": 1, "largest_relative": 1.0}

    def test_directed_edge_does_not_merge(self, tmp_path, capsys):
        p = tmp_path / "g.pdgraph"
        p.write_text("# pdgraph n=2\nD 1 2\n")
        rc, stdout, _ = run(capsys, "components", "--input", str(p))
        assert json.loads(stdout)["num_components"] == 2

    def test_ingest_without_arcs_then_components(self, tmp_path, capsys):
        """An edge list with no arcs ingests to an empty graph, which has
        no components and a NaN largest share."""
        edges, graph = tmp_path / "e.txt", tmp_path / "g.pdgraph"
        edges.write_text("# no arcs here\n")
        rc, _, _ = run(capsys, "ingest", "--input", str(edges),
                       "--output", str(graph))
        assert rc == 0 and graph.read_text() == "# pdgraph n=0\n"
        rc, stdout, _ = run(capsys, "components", "--input", str(graph),
                            "--output", str(tmp_path / "c.csv"))
        assert rc == 0
        summary = json.loads(stdout)
        assert (summary["n"], summary["num_components"]) == (0, 0)
        assert math.isnan(summary["largest_relative"])
        assert (tmp_path / "c.csv").read_text() == (
            "# n=0 largest_relative=nan\nsize,count\n")

    def test_entry_limit(self, tmp_path, capsys):
        """A graph with more adjacency entries than the int32 CSR holds
        exits 1 with the limit; with the limit patched down to 2, the three
        entries of one arc and one undirected edge cross it, and at 3 they
        fit."""
        p = tmp_path / "g.pdgraph"
        p.write_text("# pdgraph n=3\nD 1 2\nU 2 3\n")
        with mock.patch.object(pdcm.components, "MAX_ENTRIES", 2):
            rc, stdout, err = run(capsys, "components", "--input", str(p))
        assert (rc, stdout) == (1, "")
        assert err == "pdcm: error: 3 adjacency entries: pdcm's int32 CSR holds at most 2\n"
        with mock.patch.object(pdcm.components, "MAX_ENTRIES", 3):
            rc, stdout, _ = run(capsys, "components", "--input", str(p))
        assert rc == 0 and json.loads(stdout)["num_components"] == 2


class TestOracle:
    def test_third_case_json(self, tmp_path, capsys):
        spec = tmp_path / "tri.txt"
        spec.write_text("1 1 0\n1 1 0\n1 1 0\n")
        rc, stdout, _ = run(capsys, "oracle", "--spec", str(spec),
                            "--replicates", "20000", "--seed", "5")
        assert rc == 0
        result = json.loads(stdout)
        assert result["exact_fraction"] == "1/3"
        assert result["exact"] == pytest.approx(1 / 3)
        assert abs(result["frequency"] - 1 / 3) <= 3 * result["stderr"]

    def test_replicates_checked_before_the_spec_is_read(self, tmp_path, capsys):
        rc, out, err = run(capsys, "oracle", "--spec", str(tmp_path / "missing.txt"),
                           "--replicates", "0")
        assert (rc, out) == (1, "")
        assert err == "pdcm: error: need replicates >= 1\n"

    def test_bad_spec_is_runtime_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("1 1\n")
        rc, _, err = run(capsys, "oracle", "--spec", str(spec))
        assert rc == 1 and "error" in err

    @pytest.mark.parametrize("body", [
        "1 1 0\n1 1 0\n1 1 0\n",
        "# pdgraph n=3\nD 1 2\nD 3 1\nU 2 3\n",
        "1 1 0\n1 x 0\n1 1 0\n",
    ], ids=["triples", "pdgraph", "malformed"])
    def test_spec_may_be_a_pipe(self, tmp_path, body):
        """A spec given as a FIFO, as bash's <(...) gives it, which can
        neither seek nor be opened twice, reads as the same spec in a
        file does, errors included.  The oracle runs as a child under a
        timeout, so a reader that opens the FIFO again fails, not hangs."""
        def oracle(spec):
            return subprocess.run([sys.executable, "-m", "pdcm.cli", "oracle",
                                   "--spec", str(spec), "--replicates", "100"],
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=30)

        path, fifo = tmp_path / "spec.txt", tmp_path / "spec.fifo"
        path.write_text(body)
        os.mkfifo(fifo)
        threading.Thread(target=fifo.write_text, args=(body,), daemon=True).start()
        want, got = oracle(path), oracle(fifo)
        assert (got.returncode, got.stdout) == (want.returncode, want.stdout)
        assert got.stderr == want.stderr.replace(str(path), str(fifo))


@pytest.mark.parametrize("command,flag,text,lineno", [
    ("components", "--input", "# pdgraph n=3\nD 1 2\nD 1 x\n", 3),
    ("ingest", "--input", "1 2\n# comment\n3 4 5\n", 3),
    ("ingest", "--input", "1 2\n3 99999999999999999999\n", 2),
    ("oracle", "--spec", "1 1 0\n1 1\n", 2),
    ("experiment", "--degrees", "1 1 0\n\n0 -1 0\n", 3),
    ("experiment", "--degrees", "1 1 0\n0 0 99999999999999999999\n", 2),
    ("experiment", "--config", "sizes = 10\njobs = x\n", 2),
], ids=["components", "ingest", "ingest-int64", "oracle", "experiment",
        "experiment-int64", "experiment-config"])
def test_malformed_input_names_file_and_line(tmp_path, capsys, command, flag,
                                             text, lineno):
    """Every reader reports "<path>: line N: <what>" and exits 1."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    extra = ("--model", "empirical", "--sizes", "10", "--replicates", "1",
             "--output", str(tmp_path / "m.csv")) if command == "experiment" else ()
    rc, _, err = run(capsys, command, flag, str(bad), *extra)
    assert rc == 1
    assert f"{bad}: line {lineno}: " in err


@pytest.mark.parametrize("command,flag,body", [
    ("ingest", "--input", b"1 2\n3 \xff\n"),
    ("oracle", "--spec", b"1 1 0\n1 \xff 0\n"),
    ("experiment", "--degrees", b"1 1 0\n0 0 \xe9\n"),
], ids=["ingest", "oracle", "experiment"])
def test_non_utf8_byte_names_file_and_line(tmp_path, capsys, command, flag, body):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(body)
    extra = ("--model", "empirical", "--sizes", "10", "--replicates", "1",
             "--output", str(tmp_path / "m.csv")) if command == "experiment" else ()
    rc, _, err = run(capsys, command, flag, str(bad), *extra)
    assert rc == 1
    assert f"{bad}: line 2: " in err


class TestSeedRange:
    """--seed of generate, experiment and oracle, and a config file's seed
    line, take 0 <= seed < 2^64 and refuse the rest with exit 1 before
    any output is written."""

    @staticmethod
    def argv(command, tmp_path):
        spec = tmp_path / "tri.txt"
        spec.write_text("1 1 0\n1 1 0\n1 1 0\n")
        return {
            "generate": ["generate", "--model", "poisson", "--lambda", "7",
                         "--coupling", "independent", "--n", "300",
                         "--output", str(tmp_path / "g.pdgraph"),
                         "--report", str(tmp_path / "g.json")],
            "experiment": ["experiment", "--model", "poisson", "--lambda", "5",
                           "--coupling", "independent", "--sizes", "30,60",
                           "--replicates", "2", "--output", str(tmp_path / "m.csv"),
                           "--quiet"],
            "oracle": ["oracle", "--spec", str(spec), "--replicates", "2000"],
        }[command]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["generate", "experiment", "oracle"])
    def test_flag_outside_range_is_runtime_error(self, tmp_path, capsys, command, seed):
        rc, out, err = run(capsys, *self.argv(command, tmp_path), "--seed", str(seed))
        assert rc == 1 and out == ""
        assert err == f"pdcm: error: seed must lie in 0..2^64 - 1, got {seed}\n"
        assert not any(tmp_path.glob("[gm].*"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_line_outside_range_is_runtime_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = poisson\nseed = {seed}\n")
        rc, _, err = run(capsys, "experiment", "--config", str(cfg),
                         "--output", str(tmp_path / "m.csv"))
        assert rc == 1
        assert err == (f"pdcm: error: {cfg}: line 2: seed: seed must lie in "
                       f"0..2^64 - 1, got {seed}\n")

    @pytest.mark.parametrize("seed,shas", [
        (0, ("306a02d6cd72b5e29fcf1dbd78ba5ccd9635fc1570d1aed6acdf9dc8c60ef078",
             "dce482c20cc8498e2a6120cb39ba0b682019e68d90960048e305cb8ad74c260f",
             "df1ba63f7187e480734722afc1e8972246f71e4494e23cf024cdefaafd75d628",
             "15e447e1a363614ff4770454944d1b4e9ca59085fc96cb9a59c6219e2565e552")),
        (2**64 - 1,
         ("cc203ebe1e8fbc4ae56ed6cffaeabb12f61b74368e24366b888423d8e88cab47",
          "53b4fa2100ef9ad885ce3327f7ba049183e44fb4e75452701a16a22da86b929b",
          "6baabf91a0049f2bff1bb3765e868c2bbd139ed098f1c67ae85e60159ccdaf9c",
          "ca60dca2a78a765434e4315a76bf3b3afce581f190eadf8bcbd18d4870173f18")),
    ])
    def test_range_ends_keep_their_outputs(self, tmp_path, capsys, seed, shas):
        """sha256 of the pdgraph and the report, recorded before seeds were
        range-checked, of the CSV, recorded when its layout lost the
        duplicate modified_per_vertex column, and of the oracle's stdout,
        recorded when its replicates moved to two streams."""
        got = []
        for command in ("generate", "experiment", "oracle"):
            rc, out, _ = run(capsys, *self.argv(command, tmp_path), "--seed", str(seed))
            assert rc == 0
            got.append(out)
        digests = [TestOutputPins.digest(tmp_path / name)
                   for name in ("g.pdgraph", "g.json", "m.csv")]
        assert (*digests, hashlib.sha256(got[2].encode()).hexdigest()) == shas


class TestOutputPins:
    """sha256 of output files and JSON output, recorded on earlier
    versions of the code (generate and ingest before the sorted pair-code
    kernel, experiment and oracle before the readers and the direction
    share were merged, the oracle when its replicates moved to two
    streams, the experiments when the CSV layout lost the duplicate
    modified_per_vertex column); any change to a random stream, a rule or
    the file layout moves them."""

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("flags,graph_sha,report_sha", [
        (("--model", "poisson", "--lambda", "7", "--coupling", "independent"),
         "b956d924b35dfdc8f504ddfeaf10f65c2e4f04b10f01bab71040be46bfa1a0dc",
         "473672b46c9c904cf2c02cde73f9041f36c250a9267f56391ca8e1c4c125981c"),
        (("--model", "scale_free", "--gamma", "2.5", "--coupling", "dependent"),
         "7401eff2fe6b5d73d22c4d273af99f3f5f81056702247d8e1e4655daa0e26959",
         "b3d5b6aebde96f4009a779d773b313fdcad259f3725ca4f89d31fa81b3de02b5"),
    ])
    def test_generate(self, tmp_path, capsys, flags, graph_sha, report_sha):
        out, rep = tmp_path / "g.pdgraph", tmp_path / "g.json"
        rc, _, _ = run(capsys, "generate", *flags, "--n", "5000", "--seed", "11",
                       "--output", str(out), "--report", str(rep))
        assert rc == 0
        assert (self.digest(out), self.digest(rep)) == (graph_sha, report_sha)

    def test_ingest(self, tmp_path, capsys):
        out = tmp_path / "f.pdgraph"
        rc, _, _ = run(capsys, "ingest", "--input", FIXTURE, "--output", str(out))
        assert rc == 0
        assert self.digest(out) == (
            "f3d93223396d6a56d535e001ae4c5d4b327425b6f29cf616c39966b63f921006")

    @pytest.mark.parametrize("flags,csv_sha", [
        (("--model", "empirical", "--degrees", "data/degrees_10k.txt",
          "--coupling", "dependent", "--sizes", "50,200", "--seed", "3"),
         "fc5459ed361e4f0da876240f3e7c0ed7b4280976fd6b10dcccbb0f61a5802fec"),
        (("--model", "poisson", "--lambda", "5", "--coupling", "independent",
          "--sizes", "30,60", "--seed", "4"),
         "7a11c58a371740fe98bda5399b9becfe272f861bd59a4b919b0935e0c7095de0"),
    ])
    def test_experiment(self, tmp_path, capsys, flags, csv_sha):
        out = tmp_path / "m.csv"
        rc, _, _ = run(capsys, "experiment", *flags, "--replicates", "2",
                       "--output", str(out), "--quiet")
        assert rc == 0
        assert self.digest(out) == csv_sha

    def test_experiment_without_edges(self, tmp_path, capsys):
        zero = tmp_path / "zero.txt"
        zero.write_text("0 0 0\n" * 3)
        out = tmp_path / "m.csv"
        rc, _, _ = run(capsys, "experiment", "--model", "empirical",
                       "--degrees", str(zero), "--sizes", "10",
                       "--replicates", "1", "--seed", "2",
                       "--output", str(out), "--quiet")
        assert rc == 0
        assert out.read_text().splitlines()[1].endswith(",nan")
        assert self.digest(out) == (
            "5330243ed2953ebb7699a834bc5ba196d160326eb57b85bcb740196521b8a1f8")

    def test_oracle(self, tmp_path, capsys):
        spec = tmp_path / "tri.txt"
        spec.write_text("1 1 0\n1 1 0\n1 1 0\n")
        rc, stdout, _ = run(capsys, "oracle", "--spec", str(spec),
                            "--replicates", "2000", "--seed", "5")
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "6c686f21e369bc89f7d1307933827205aabd7d82da7601bede0ce4926ce64486")

    def test_oracle_multi_chunk(self, tmp_path, capsys):
        """An in-stub surplus (3 > 2) and an odd undirected total (5):
        15 vertices and stubs per replicate, so 40000 replicates take three
        union chunks at the default budget."""
        spec = tmp_path / "surplus.txt"
        spec.write_text("1 0 1\n0 1 1\n1 0 1\n1 1 0\n0 0 2\n")
        assert 40000 > 2 * (saveprob._UNION_BUDGET // 15)
        rc, stdout, _ = run(capsys, "oracle", "--spec", str(spec),
                            "--replicates", "40000", "--seed", "6")
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "ead33d55d6c1f874d4c21ffe86ed3d6a70878858d78117765bb1baaf72ed2a0a")


_IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded_modules():
    return {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "pool": "concurrent.futures.process" in sys.modules}

import pdcm, pdcm.cli
loaded = {"import": loaded_modules()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = pdcm.cli.main(argv)
    loaded[name] = loaded_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""


def test_components_loads_scipy_sparse_only_without_a_giant_or_on_a_cut_off(tmp_path):
    """Importing pdcm loads no scipy module, and no subcommand loads
    scipy.sparse, but components on a directed cycle longer than the level
    cap, which cuts off the pivot search.  A Poisson(1) graph of 300,000
    vertices, whose pivot search leaves 31,957 vertices and 51,865
    entries open (scipy's share before the colouring), is labelled in
    numpy.  Neither the import nor a subcommand without a worker pool
    loads concurrent.futures.process.  A fresh interpreter runs the
    subcommands in turn, because this test process has imported both
    already."""
    m = 3 * pdcm.components._LEVELS
    (tmp_path / "cycle.pdgraph").write_text(
        f"# pdgraph n={m}\n" + "".join(f"D {v} {v % m + 1}\n" for v in range(1, m + 1)))
    (tmp_path / "atom.txt").write_text("0 0 1\n1 1 0\n")
    (tmp_path / "edges.txt").write_text("7 3\n3 7\n3 9\n")
    (tmp_path / "tri.txt").write_text("1 1 0\n1 1 0\n1 1 0\n")
    gen = ("--n", "20", "--seed", "1", "--report", str(tmp_path / "r.json"))
    grid = ("experiment", "--model", "poisson", "--sizes", "20", "--replicates", "2",
            "--seed", "1", "--quiet")
    commands = [
        ("generate-poisson", ["generate", "--model", "poisson", *gen,
                              "--output", str(tmp_path / "g.pdgraph")]),
        ("generate-empirical", ["generate", "--model", "empirical",
                                "--degrees", str(tmp_path / "atom.txt"), *gen,
                                "--output", str(tmp_path / "e.pdgraph")]),
        ("ingest", ["ingest", "--input", str(tmp_path / "edges.txt"),
                    "--output", str(tmp_path / "i.pdgraph")]),
        ("experiment", [*grid, "--output", str(tmp_path / "m.csv")]),
        ("oracle", ["oracle", "--spec", str(tmp_path / "tri.txt"),
                    "--replicates", "100", "--seed", "1"]),
        ("components", ["components", "--input", str(tmp_path / "g.pdgraph")]),
        ("generate-poisson-1", ["generate", "--model", "poisson", "--lambda", "1",
                                "--n", "300000", "--seed", "1",
                                "--report", str(tmp_path / "r.json"),
                                "--output", str(tmp_path / "p1.pdgraph")]),
        ("components-poisson-1", ["components", "--input", str(tmp_path / "p1.pdgraph")]),
        ("generate-scale-free", ["generate", "--model", "scale_free", "--gamma", "2.5", *gen,
                                 "--output", str(tmp_path / "s.pdgraph")]),
        ("components-cycle", ["components", "--input", str(tmp_path / "cycle.pdgraph")]),
        ("experiment-pool", [*grid, "--jobs", "2", "--output", str(tmp_path / "p.csv")]),
    ]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps(commands)], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["import"] == {"scipy": [], "pool": False}
    for name, _ in commands[:-1]:
        assert isinstance(loaded[name], dict), (name, loaded[name])
        assert not loaded[name]["pool"], name
    for name, _ in commands[:-2]:
        assert not any(m.startswith("scipy.sparse") for m in loaded[name]["scipy"]), name
    assert loaded["components"]["scipy"] == []
    assert loaded["components-poisson-1"]["scipy"] == []
    # positive controls: the probe does see scipy once a scale-free model
    # runs, scipy.sparse once components meets the long cycle, and the
    # pool module once an experiment runs with --jobs 2
    assert "scipy.special" in loaded["generate-scale-free"]["scipy"]
    assert "scipy.sparse.csgraph" in loaded["components-cycle"]["scipy"]
    assert loaded["experiment-pool"]["pool"]


_PACKAGE_PROBE = """
import json, sys, types

import pdcm
bare = "numpy" in sys.modules
import pdcm.simplify
simplify_is_module = isinstance(pdcm.simplify, types.ModuleType)
from pdcm import cli
print(json.dumps([bare, simplify_is_module,
                  sorted(m for m in sys.modules if m.startswith("pdcm."))]))
"""


def test_package_forwards_no_names():
    """The package re-exports nothing: a bare import loads no numpy,
    pdcm.simplify stays the module, and the cli loads every layer."""
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_PROBE], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, [
        f"pdcm.{m}" for m in ("cli", "components", "degrees", "experiment", "ingest",
                              "matching", "metrics", "rng", "saveprob", "simplify")]]


def test_readme_library_example_runs(capsys):
    """The README's Library code block runs as written, so its imports
    follow the modules."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    modified, d_tv = capsys.readouterr().out.split()
    assert int(modified) > 0 and 0.0 < float(d_tv) < 1.0


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
