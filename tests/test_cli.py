"""Front-end behaviour: flags, exit codes, output files, determinism."""

import hashlib
import json
import math

import pytest

from pdcm import saveprob
from pdcm.cli import main
from pdcm.ingest import read_pdgraph

FIXTURE = "data/fixture_edges.txt"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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
        stats = json.loads(stdout)
        assert stats["n"] == 6
        assert stats["directed"] == 4 and stats["undirected"] == 3
        # the stored graph carries the same edges
        g = read_pdgraph(out)
        assert g.num_directed == 4 and g.num_undirected == 3

    def test_missing_input_is_runtime_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "ingest", "--input", str(tmp_path / "no.txt"))
        assert rc == 1 and "error" in err


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

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        rc, _, err = run(capsys, "experiment", "--model", "poisson",
                         "--sizes", "20", "--replicates", "1", "--seed", "1",
                         "--output", str(tmp_path / "no_dir" / "m.csv"))
        assert rc == 1 and "error" in err

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("velocity = 9\n")
        rc, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert rc == 1 and "velocity" in err


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

    def test_bad_spec_is_runtime_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("1 1\n")
        rc, _, err = run(capsys, "oracle", "--spec", str(spec))
        assert rc == 1 and "error" in err


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


class TestOutputPins:
    """sha256 of output files and JSON output, recorded on earlier
    versions of the code (generate and ingest before the sorted pair-code
    kernel, experiment and oracle before the readers and the direction
    share were merged, the multi-chunk oracle before its generators were
    seeded in batches); any change to a random stream, a rule or the
    file layout moves them."""

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
         "1851aa939d79efe3e98be5767da32d039162a81493a335275d045f8fb7d045c9"),
        (("--model", "poisson", "--lambda", "5", "--coupling", "independent",
          "--sizes", "30,60", "--seed", "4"),
         "1e0a88ea5a70db736a44f486e71fd9880251395ba95cf12e21265039c969fe89"),
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
            "cc2d4acb66cf1447587a0053e2b00eee1b2ef994bdcba86da6afbae1445a9e8d")

    def test_oracle(self, tmp_path, capsys):
        spec = tmp_path / "tri.txt"
        spec.write_text("1 1 0\n1 1 0\n1 1 0\n")
        rc, stdout, _ = run(capsys, "oracle", "--spec", str(spec),
                            "--replicates", "2000", "--seed", "5")
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "7b52ff2d4bab9ff764c2045024bad1568237f7649fb98b8ea2a9824666f63f09")

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
            "dcd4ef19c1ec0459e0965a7f03c40141499c0c8baaecd5267d528e5670d9c07b")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
