import gzip
import io
import math
import os
import re
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    densify_reference,
    directed_pairs,
    edge_sets,
    int_rows_reference,
    pdgraph_reference,
    poisson_graph,
    random_simple_graph,
    simple_graph,
    traced_peak,
    undirected_pairs,
    validate_simple_graph,
)
from pdcm import degrees, ingest
from pdcm.degrees import load_degree_file
from pdcm.ingest import (
    ParseError,
    _classify,
    _densify,
    ingest_path,
    parse_edge_list,
    pdgraph_from,
    read_pdgraph,
    to_partially_directed,
    write_pdgraph,
)

DATA = Path(__file__).parent.parent / "data"

# data/fixture_edges.txt, worked through by hand:
# 12 arcs over sparse ids {101,202,303,404,505,909} -> dense 0..5 by first
# appearance; one self-arc (505), one duplicate (101 303), reciprocal pairs
# {101,202}, {303,404}, {303,909}; leaves 4 directed + 3 undirected edges.
FIXTURE_N = 6
FIXTURE_DIRECTED = {(0, 2), (1, 2), (5, 0), (3, 0)}
FIXTURE_UNDIRECTED = {(0, 1), (2, 3), (2, 5)}
FIXTURE_GOLDEN_PDGRAPH = (
    "# pdgraph n=6\n"
    "D 1 3\n"
    "D 2 3\n"
    "D 4 1\n"
    "D 6 1\n"
    "U 1 2\n"
    "U 3 4\n"
    "U 3 6\n"
)


class TestParse:
    def test_comments_and_order(self):
        raw = parse_edge_list(io.BytesIO(b"# c\n1 2\n2 1\n"))
        assert raw.arcs.tolist() == [[1, 2], [2, 1]]

    def test_empty_input(self):
        raw = parse_edge_list(io.BytesIO(b""))
        assert raw.num_arcs == 0
        g, stats = to_partially_directed(raw)
        assert g.n == 0 and stats.directed + stats.undirected == 0
        assert math.isnan(stats.proportion_directed)

    @pytest.mark.parametrize(
        "body,where",
        [("1 2\nx 2\n", "line 2"), ("1\n", "line 1"), ("1 2 3\n", "line 1"),
         ("1 2\r\n3 4\r\n5 x\r\n", "line 3"),
         ("1 2\n3 1234567890123456789\n", "line 2"),
         ("1 2\n-1 2", "line 2")],
    )
    def test_errors_carry_line_numbers(self, body, where):
        with pytest.raises(ParseError, match=where):
            parse_edge_list(io.BytesIO(body.encode()))

    @pytest.mark.parametrize("body,arcs", [
        (b"1 2\r\n3 4\r\n", [[1, 2], [3, 4]]),
        (b"1 2  # trailing comment\n3\t4#\n", [[1, 2], [3, 4]]),
        (b"1 2\n3 4", [[1, 2], [3, 4]]),
        (b"123456789012345678 0\n", [[123456789012345678, 0]]),
        (b"# comments\n\n \t\n# only\n", []),
        (b"\n", []),
    ], ids=["crlf", "trailing-comment", "no-final-newline", "18-digit-id",
            "comments-and-blanks", "one-blank-line"])
    def test_accepted_layouts(self, body, arcs):
        raw = parse_edge_list(io.BytesIO(body))
        assert raw.arcs.tolist() == arcs and raw.arcs.shape == (len(arcs), 2)


class TestClassify:
    def test_reciprocal_and_self(self):
        g, stats = to_partially_directed(
            parse_edge_list(io.BytesIO(b"1 2\n2 1\n3 3\n"))
        )
        assert g.num_directed == 0 and g.num_undirected == 1
        assert stats.self_arcs_dropped == 1 and stats.n == 3

    def test_dedupe_before_reciprocal(self):
        """A doubled (u,v) without its mirror stays one directed edge."""
        g, stats = to_partially_directed(parse_edge_list(io.BytesIO(b"5 9\n5 9\n")))
        assert g.num_directed == 1 and g.num_undirected == 0
        assert stats.duplicates_dropped == 1

    def test_densify_first_appearance(self):
        g, _ = to_partially_directed(parse_edge_list(io.BytesIO(b"42 7\n7 99\n")))
        assert directed_pairs(g).tolist() == [[0, 1], [1, 2]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*2 * [st.one_of(
        st.integers(0, 6), st.integers(10**18 - 8, 10**18 - 1),
        st.integers(0, 10**18 - 1))]), max_size=40))
    def test_densify_matches_unique_reference(self, pairs):
        """Exact equality, dtype included, with repeats, self-arcs and ids
        near the grammar's 10^18 ceiling."""
        arcs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        dense, n = _densify(arcs)
        want, want_n = densify_reference(arcs)
        assert n == want_n
        assert dense.dtype == want.dtype and np.array_equal(dense, want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=40
        )
    )
    def test_arc_conservation(self, pairs):
        text = "".join(f"{a} {b}\n" for a, b in pairs)
        raw = parse_edge_list(io.BytesIO(text.encode()))
        g, stats = to_partially_directed(raw)
        validate_simple_graph(g)
        assert (
            2 * stats.undirected
            + stats.directed
            + stats.self_arcs_dropped
            + stats.duplicates_dropped
            == raw.num_arcs
        )


class TestFixtureFile:
    def test_expected_statistics(self):
        g, stats = ingest_path(DATA / "fixture_edges.txt")
        assert stats.n == FIXTURE_N
        assert stats.directed == 4 and stats.undirected == 3
        assert stats.self_arcs_dropped == 1 and stats.duplicates_dropped == 1
        assert stats.proportion_directed == pytest.approx(4 / 7)
        d, u = edge_sets(g)
        assert d == FIXTURE_DIRECTED and u == FIXTURE_UNDIRECTED

    def test_expected_degrees(self):
        g, _ = ingest_path(DATA / "fixture_edges.txt")
        assert g.degree_triples.tolist() == [
            [2, 1, 1],
            [0, 1, 1],
            [2, 0, 2],
            [0, 1, 1],
            [0, 0, 0],
            [0, 1, 1],
        ]

    def test_golden_pdgraph_bytes(self, tmp_path):
        g, _ = ingest_path(DATA / "fixture_edges.txt")
        out = tmp_path / "fixture.pdgraph"
        write_pdgraph(g, out)
        assert out.read_text() == FIXTURE_GOLDEN_PDGRAPH

    def test_gzip_equivalent(self, tmp_path):
        gz = tmp_path / "fixture.txt.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write((DATA / "fixture_edges.txt").read_text())
        g1, s1 = ingest_path(DATA / "fixture_edges.txt")
        g2, s2 = ingest_path(gz)
        assert s1 == s2
        assert edge_sets(g1) == edge_sets(g2)

    def test_scc_of_fixture(self):
        """Hand-derived: und edges tie {0,1} and {2,3,5}; arcs 0->2 and 5->0
        close a cycle through both groups, leaving the self-arc vertex out."""
        from pdcm.components import strongly_connected_components

        g, _ = ingest_path(DATA / "fixture_edges.txt")
        cs = strongly_connected_components(g)
        assert cs.sizes.tolist() == [5, 1]
        assert cs.largest_relative == pytest.approx(5 / 6)


# one body line of the canonical pdgraph form; ids are decimal without
# leading zeros
LINE = re.compile(rb"[DU] [1-9][0-9]{0,9} [1-9][0-9]{0,9}")
CANONICAL_LINE = st.builds("{} {} {}".format, st.sampled_from("DU"),
                           st.integers(1, 10**10 - 1), st.integers(1, 10**10 - 1))


def edit_line(line, at, text):
    """line with the character at position ``at`` (mod its length + 1)
    replaced by text; text = "" deletes it."""
    at %= len(line) + 1
    return line[:at] + text + line[at + 1:]


# pdgraph bodies the reader refuses: (body, line named, what it says); a
# body that opens with its own header replaces the usual "# pdgraph n=3"
NON_CANONICAL = [
    ("D 1 3\nD 1 2\n", "line 3", "unsorted"),
    ("D 1 2\nU 1 3\nD 2 3\n", "line 3", "U line before a D line"),
    ("D 1 2\nU 1 3\nU 1 3\n", "line 4", "duplicated"),
    ("D 1 2\nU 3 2\n", "line 3", "u < v"),
    ("D 1 3\nD 2 1\nD 3 1\n", "line 4", "reciprocal"),
    ("D 1 2\nD 3 2\nU 2 3\n", "line 3", "parallel"),
    ("D 2 2\n", "line 2", "self-loop"),
    ("D 1 2\n# note\nU 1 3\n", "line 3", "expected 'D u v'"),
    ("D 1 2\nD 1  3\n", "line 3", "expected 'D u v'"),
    ("D 1 2\nD 1 03\n", "line 3", "expected 'D u v'"),
    ("D 1 2\nD 1\t3\n", "line 3", "expected 'D u v'"),
    ("D 1 2 D 1 3\n", "line 2", "expected 'D u v'"),
    ("D 0 2\n", "line 2", "expected 'D u v'"),
    ("D 1 2\r\n", "line 2", "expected 'D u v'"),
    ("D 1 2\nD 1 12345678901\n", "line 3", "expected 'D u v'"),
    ("D 1 2\nD 1 x", "line 3", "expected 'D u v'"),
    ("\nD 1 2\n", "line 2", "expected 'D u v'"),
    ("# pdgraph n=+3\nD 1 2\n", "line 1", "leading zeros"),
    ("# pdgraph n=0_3\nD 1 2\n", "line 1", "leading zeros"),
    ("# pdgraph n= 3 \nD 1 2\n", "line 1", "leading zeros"),
    ("# pdgraph n=03\nD 1 2\n", "line 1", "leading zeros"),
]


# 1-based ids at both ends of every decimal width, up to the largest id
# that n = 2^31 allows
WIDTH_IDS = sorted({v for d in range(1, 11) for v in (10**(d - 1), 10**d - 1)
                    if v <= 2**31} | {2**31})


def width_graph():
    """Arcs between neighbours and undirected edges between second
    neighbours of WIDTH_IDS, at n = 2^31."""
    ids = np.array(WIDTH_IDS) - 1
    return simple_graph(2**31, ids[:-1], ids[1:], ids[:-2], ids[2:])


WRITER_GRAPHS = {
    "every id width": width_graph,
    "no D block": lambda: simple_graph(5, [], [], [0, 2], [1, 4]),
    "no U block": lambda: simple_graph(5, [0, 3], [1, 2], [], []),
    "no edges": lambda: simple_graph(7, [], [], [], []),
    "n = 0": lambda: simple_graph(0, [], [], [], []),
    "poisson": lambda: poisson_graph(3000, seed=4),
}


@pytest.mark.parametrize("rows", [1, 3, ingest._WRITE_ROWS])
@pytest.mark.parametrize("name", WRITER_GRAPHS)
def test_writer_bytes_equal_percent_formatting(tmp_path, monkeypatch, name, rows):
    """The digit-word writer emits what one %-formatted line per edge
    gives, byte for byte, whatever the rows per write."""
    g = WRITER_GRAPHS[name]()
    monkeypatch.setattr(ingest, "_WRITE_ROWS", rows)
    path = tmp_path / "g.pdgraph"
    write_pdgraph(g, path)
    assert path.read_bytes() == pdgraph_reference(g)


class TestPdgraphRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_round_trip_identity(self, tmp_path_factory, seed):
        g = random_simple_graph(np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("rt") / "g.pdgraph"
        write_pdgraph(g, path)
        h = read_pdgraph(path)
        assert h.n == g.n
        assert directed_pairs(h).tolist() == directed_pairs(g).tolist()
        assert undirected_pairs(h).tolist() == undirected_pairs(g).tolist()
        # and the re-export is byte-identical
        path2 = path.with_suffix(".again")
        write_pdgraph(h, path2)
        assert path.read_text() == path2.read_text()

    def test_isolated_vertices_survive(self, tmp_path):
        g, _ = to_partially_directed(parse_edge_list(io.BytesIO(b"1 2\n")))
        # hand-build a file with a larger n than the edges mention
        path = tmp_path / "iso.pdgraph"
        path.write_text("# pdgraph n=4\nD 1 2\n")
        h = read_pdgraph(path)
        assert h.n == 4
        assert h.degree_triples.tolist() == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
        ]

    def test_reader_errors(self, tmp_path):
        """Each error names the file once, then the line; load_degree_file,
        which takes a pdgraph too, gives a pdgraph the same message."""
        path = tmp_path / "bad.pdgraph"
        path.write_text("not a header\n")
        assert "header" in named_once(path, read_error(path))
        assert "three integers" in named_once(path, read_error(path, load_degree_file))
        for body in ("# pdgraph n=2\nD 1 5\n", "# pdgraph n=2\nX 1 2\n"):
            path.write_text(body)
            assert named_once(path, read_error(path)).startswith(f"{path}: line 2: ")
            assert read_error(path, load_degree_file) == read_error(path)

    @pytest.mark.parametrize("body,where,what", NON_CANONICAL)
    def test_rejects_non_canonical_form(self, tmp_path, body, where, what):
        """The reader takes only what write_pdgraph emits; a reciprocal D
        pair, say, is an error rather than an undirected edge, and so is a
        vertex count that int() would take but the writer never writes.  A
        body that opens with its own header replaces the usual one."""
        path = tmp_path / "bad.pdgraph"
        header = "" if body.startswith("# pdgraph") else "# pdgraph n=3\n"
        path.write_text(header + body)
        message = named_once(path, read_error(path))
        assert re.search(f"{where}: .*{what}", message)
        assert read_error(path, load_degree_file) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        CANONICAL_LINE,
        st.builds(edit_line, CANONICAL_LINE, st.integers(0, 24), st.sampled_from(
            ["", " ", "\t", "\n", "D", "U", "0", "7", "+", "x", "#"])),
    ), max_size=6))
    def test_reader_takes_exactly_the_line_grammar(self, rows):
        """pdgraph_from parses a body exactly when every line matches the
        canonical line grammar, and then encodes its ids; else it names the
        first line that does not, and encodes nothing.  The layout checks
        run after the body is parsed, so ids outside 1..n and blocks out of
        order still reach the encoder."""
        body = "".join(row + "\n" for row in rows).encode()
        lines = body.split(b"\n")[:-1]
        bad = [i for i, line in enumerate(lines) if not LINE.fullmatch(line)]
        error = None
        with mock.patch.object(ingest, "encode", wraps=ingest.encode) as encode:
            try:
                pdgraph_from(io.BytesIO(body), b"# pdgraph n=3\n")
            except ParseError as exc:
                error = str(exc)
        if bad:
            line = lines[bad[0]].decode()
            assert error == (f"line {bad[0] + 2}: expected 'D u v' or 'U u v', "
                             f"got {line!r}")
            assert not encode.called
        else:
            assert error is None or "expected 'D u v'" not in error
            ids = [pair for call in encode.call_args_list
                   for pair in (np.stack(call.args[:2], axis=1) + 1).tolist()]
            assert ids == [[int(x) for x in line.split()[1:]] for line in lines]

    def test_vertex_count_checked_at_entry(self, tmp_path):
        path = tmp_path / "huge.pdgraph"
        path.write_text(f"# pdgraph n={2**31 + 1}\n")
        with pytest.raises(ParseError, match="line 1: .*limit"):
            read_pdgraph(path)
        with pytest.raises(ValueError, match="limit"):
            _classify(np.zeros((0, 2), dtype=np.int64), 2**31 + 1)


def read_error(path, reader=read_pdgraph) -> str:
    with pytest.raises(ParseError) as exc:
        reader(path)
    return str(exc.value)


def named_once(path, message: str) -> str:
    """message, checked to open with the path and a line number and to
    name the path nowhere else."""
    assert message.startswith(f"{path}: line ") and message.count(str(path)) == 1
    return message


# 3 bytes is shorter than any line, so every slice is one line; 20 bytes
# cuts a block of 6-byte lines after its third
SLICE_BUDGETS = [3, 20]

# bodies whose first error lies past the first 20-byte slice, or needs
# the lines of several slices: (body, the message's line and text)
LATE_ERRORS = [
    ("D 1 2\nD 1 3\nD 2 3\nD 3 1\nD 3 2\nX 1 2\n", "line 7: expected 'D u v'"),
    ("D 1 2\nD 1 3\nD 2 3\nD 3 1\nD 3 2\nD 3 x", "line 7: expected 'D u v'"),
    ("D 1 2\nD 1 3\nU 1 2\nD 2 3\n", "line 4: U line before a D line"),
    ("D 1 2\nD 1 3\nD 2 3\nU 1 2\nU 1 3\nD 3 1\n", "line 5: U line before a D line"),
    ("D 1 2\nD 1 9\nU 1 2\nD 2 3\n", "line 4: U line before a D line"),
    ("D 1 2\nD 1 9\nD 2 3\nD 3 1\nD 3 2\nD 9 9\n", "line 3: vertex id outside 1..3"),
    ("D 1 2\nU 2 1\nD 1 3\nD 2 3\nD 3 1\nD x 2\n", "line 7: expected 'D u v'"),
    ("D 1 2\nD 1 3\nD 2 1\nD 2 3\n", "line 4: reciprocal directed pair"),
    ("D 1 2\nD 1 3\nD 3 2\nU 2 3\n", "line 4: directed edge parallel"),
]


class TestPdgraphSlices:
    """The reader tokenises its body in newline-aligned slices of
    degrees._SLICE bytes; no budget may change what it returns or which
    line an error names."""

    @pytest.mark.parametrize("budget", SLICE_BUDGETS)
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_is_budget_free(self, tmp_path, monkeypatch, budget, seed):
        g = random_simple_graph(np.random.default_rng(seed), max_n=40, max_edges=80)
        path = tmp_path / "g.pdgraph"
        write_pdgraph(g, path)
        monkeypatch.setattr(degrees, "_SLICE", budget)
        h = read_pdgraph(path)
        assert h.n == g.n
        for name in ("dir_tails", "dir_heads", "und_u", "und_v"):
            got, want = getattr(h, name), getattr(g, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("budget", SLICE_BUDGETS)
    def test_body_without_final_newline(self, tmp_path, monkeypatch, budget):
        path = tmp_path / "g.pdgraph"
        path.write_text("# pdgraph n=4\nD 1 2\nD 1 3\nD 2 3\nD 4 1\nU 2 4\nU 3 4")
        monkeypatch.setattr(degrees, "_SLICE", budget)
        with open(path, "rb") as fh:
            assert len(list(degrees.slices(fh))) > 1
        g = read_pdgraph(path)
        assert directed_pairs(g).tolist() == [[0, 1], [0, 2], [1, 2], [3, 0]]
        assert undirected_pairs(g).tolist() == [[1, 3], [2, 3]]

    def test_pipe_is_read_to_its_end(self, tmp_path):
        """A FIFO reports size 0 and cannot seek; the reader reads on to
        the end of the stream."""
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text,
                                  args=("# pdgraph n=3\nD 1 2\nD 3 1\nU 2 3\n",))
        writer.start()
        g = read_pdgraph(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert directed_pairs(g).tolist() == [[0, 1], [2, 0]]
        assert undirected_pairs(g).tolist() == [[1, 2]]

    @pytest.mark.parametrize("budget", SLICE_BUDGETS)
    @pytest.mark.parametrize("body", [b for b, _, _ in NON_CANONICAL]
                             + ["# pdgraph n=3\nD 1 2\nD 1 x\n"])
    def test_errors_are_budget_free(self, tmp_path, monkeypatch, budget, body):
        """Every case of test_rejects_non_canonical_form and the pdgraph
        case of test_malformed_input_names_file_and_line."""
        path = tmp_path / "bad.pdgraph"
        path.write_text(("" if body.startswith("# pdgraph") else "# pdgraph n=3\n") + body)
        want = read_error(path)
        monkeypatch.setattr(degrees, "_SLICE", budget)
        assert read_error(path) == want

    @pytest.mark.parametrize("budget", [*SLICE_BUDGETS, 1 << 20])
    @pytest.mark.parametrize("body,error", LATE_ERRORS)
    def test_error_past_the_first_slice(self, tmp_path, monkeypatch, budget, body, error):
        """A grammar error anywhere outranks a U line before a D line,
        which outranks an id outside 1..n, as in one unsliced pass."""
        path = tmp_path / "bad.pdgraph"
        path.write_text("# pdgraph n=3\n" + body)
        monkeypatch.setattr(degrees, "_SLICE", budget)
        assert error in read_error(path)


# row bodies through read_int_rows: (name, body, width)
ROW_BODIES = [
    ("comments", b"# a header\n# of two lines\n1 2\n3 4 # trailing\n#\n5 6\n7 8\n", 2),
    ("crlf", b"1 2\r\n3 4\r\n\r\n5 6 # x\r\n7 8\r\n", 2),
    ("blank-lines", b"\n\n1 2\n\n \t\n3 4\n\n5 6\n\n7 8\n\n", 2),
    ("no-final-newline", b"1 2\n3 4\n5 6\n7 8\n10 20\n30 40", 2),
    ("triples", b"# in out und\n1 2 3\n4 5 6\n\n7 8 9\n", 3),
    ("late-error", b"1 2\n3 4\n5 6\n# fine\n7 8\n9 x\n1 2\n", 2),
    ("late-error-crlf", b"1 2\r\n3 4\r\n5 6\r\n7 8\r\n9 9 9\r\n", 2),
]


def stream_of(body: bytes, gzipped: bool):
    return (gzip.GzipFile(fileobj=io.BytesIO(gzip.compress(body))) if gzipped
            else io.BytesIO(body))


def rows_or_error(body: bytes, width: int, gzipped: bool):
    """read_int_rows' rows as lists, or its error message."""
    try:
        return degrees.read_int_rows(stream_of(body, gzipped), width).tolist()
    except ParseError as exc:
        return str(exc)


class TestIntRowSlices:
    """read_int_rows parses a stream in the slices of degrees.slices;
    no budget may change its rows or the line an error names."""

    @pytest.mark.parametrize("budget", SLICE_BUDGETS)
    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("name,body,width", ROW_BODIES, ids=[r[0] for r in ROW_BODIES])
    def test_rows_are_budget_free(self, monkeypatch, budget, gzipped, name, body, width):
        monkeypatch.setattr(degrees, "_SLICE", 1 << 20)
        want = rows_or_error(body, width, gzipped)
        monkeypatch.setattr(degrees, "_SLICE", budget)
        assert len(list(degrees.slices(io.BytesIO(body)))) > 1
        assert rows_or_error(body, width, gzipped) == want

    def test_expected_rows_and_errors(self):
        """The reference results the budgets are compared against."""
        results = {name: rows_or_error(body, width, False)
                   for name, body, width in ROW_BODIES}
        assert results["comments"] == [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert results["crlf"] == results["comments"]
        assert results["blank-lines"] == results["comments"]
        assert results["no-final-newline"] == [[1, 2], [3, 4], [5, 6], [7, 8],
                                               [10, 20], [30, 40]]
        assert results["triples"] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert results["late-error"] == (
            "line 6: expected two integers, non-negative and below 10^18, got '9 x'")
        assert results["late-error-crlf"] == (
            "line 5: expected two integers, non-negative and below 10^18, "
            "got '9 9 9\\r'")

    @pytest.mark.parametrize("gzipped", [False, True], ids=["plain", "gzip"])
    def test_slices_cover_the_stream(self, monkeypatch, gzipped):
        """Slices end at line ends, join back to the stream, and only a
        last line without one gets a line end."""
        monkeypatch.setattr(degrees, "_SLICE", 5)
        chunks = list(degrees.slices(stream_of(b"12 34\n5 6\r\n\n789 1011\n1 2", gzipped)))
        assert chunks == [b"12 34\n", b"5 6\r\n", b"\n789 1011\n", b"1 2\n"]
        assert list(degrees.slices(io.BytesIO(b""))) == []


# lines over the row grammar's alphabet, in pieces that make ids, blanks
# and comments likely: digits, the longest id, space, tab, '#', CR, LF, a letter
ROW_TEXT = st.lists(st.lists(st.sampled_from(["7", "42", "9" * 18, " ", "\t", "#", "\r", "\n",
                                              "x"]), max_size=8).map("".join),
                    max_size=6).map(lambda lines: "".join(line + "\n" for line in lines).encode())


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([2, 3]), ROW_TEXT)
def test_row_grammar_written_out_matches_the_repeated_group(width, body):
    """degrees._ROWS writes the ids after the first out: on any body over
    the grammar's alphabet it stops where the {width - 1} repetition does."""
    repeated = re.compile(rb"(?:[ \t]*+(?:[0-9]{1,18}+(?:[ \t]++[0-9]{1,18}+){%d}"
                          rb"[ \t]*+)?+(?:#[^\n]*+)?+\r?\n)*+" % (width - 1))
    assert degrees._ROWS[width].match(body).end() == repeated.match(body).end()


def test_parse_edge_list_memory_is_bounded():
    """parse_edge_list holds the ids and one slice's work, never the
    text: on a gzipped list whose comments make up most of its bytes.

    Bound, from the array sizes, with A arcs and S = degrees._SLICE:
      32 A   the (A, 2) int64 ids, at most doubled while their array
             grows in place;
      10 S   one slice of S bytes plus the rest of its last line, its
             comment-free copy, and its ids (8 bytes per id and at least
             2 bytes per id of text, doubled while fromstring grows them).
    The old reader held the decompressed text (55 bytes per arc here),
    its comment-free copy and the ids at once."""
    rng = np.random.default_rng(5)
    ids = rng.integers(1, 10**7, size=(300_000, 2))
    text = "".join(f"{u} {v} # crawled from the front page, rank {u % 97}\n"
                   for u, v in ids.tolist())
    stream = io.BytesIO(gzip.compress(("# Directed graph\n" + text).encode(), 1))
    raw, peak = traced_peak(parse_edge_list, gzip.GzipFile(fileobj=stream))
    assert np.array_equal(raw.arcs, ids)
    bound = 32 * ids.shape[0] + 10 * degrees._SLICE
    assert peak <= bound, f"{peak / ids.shape[0]:.1f} bytes per arc"


def test_read_pdgraph_memory_is_bounded(tmp_path):
    """The reader holds at most the body, the pair codes and one slice, or
    the codes and the layout checks' arrays, or the codes and the graph.

    Bound, from the array sizes, with B body bytes, L lines, A arcs, U
    undirected edges and C = simplify._CHUNK:
      8 L      the int64 pair codes, held throughout;
      B + 1    the body while it is tokenised;
      8 max(A, U) + 2 A + 3 U + 40 C
               the layout checks: one int64 scratch array for their
               arithmetic and then the unordered-pair codes, the four
               checks' byte masks with the copy the last is built from
               (or the pairs' two masks and the last check's), and one
               chunk's int64 temporaries; at most 20 A here, down from
               the 27 A of three int64 arrays per arc and three masks;
      8 L      the returned graph's four uint32 id arrays;
      8 _SLICE one slice, its tag-free copy and its ids (16 bytes per line
               of at least 6 bytes, doubled while fromstring grows them).
    The old reader held the body, its tag-free copy, the (L, 2) int64 ids
    and four int64 divmod arrays at once, over 70 bytes per line here."""
    from pdcm.simplify import _CHUNK

    g = poisson_graph(100_000)
    path = tmp_path / "g.pdgraph"
    write_pdgraph(g, path)
    body = path.stat().st_size - len("# pdgraph n=100000\n")
    lines, arcs, unds = g.num_directed + g.num_undirected, g.num_directed, g.num_undirected
    layout = 8 * max(arcs, unds) + 2 * arcs + 3 * unds + 40 * _CHUNK
    assert layout <= 20 * arcs
    bound = 8 * lines + max(body + 1, layout, 8 * lines) + 8 * (1 << 20)
    h, peak = traced_peak(read_pdgraph, path)
    assert np.array_equal(h.dir_heads, g.dir_heads)
    assert peak <= bound, f"{peak / lines:.1f} bytes per line"


def test_degree_file_loader_accepts_pdgraph(tmp_path):
    g, _ = ingest_path(DATA / "fixture_edges.txt")
    path = tmp_path / "g.pdgraph"
    write_pdgraph(g, path)
    triples = load_degree_file(path)
    assert triples.tolist() == g.degree_triples.tolist()


# bodies from the characters of the row formats, whole rows of two or
# three ids, and digit runs on both sides of the 18-digit limit
_ROW_PIECE = st.sampled_from([b"0", b"7", b"42", b" ", b"\t", b"#", b"-", b"x",
                              b"\r\n", b"\n"])
_DIGIT_RUN = st.text("0123456789", min_size=1, max_size=21).map(str.encode)
_ROW = st.builds(
    lambda ids, sep, tail, end: sep.join(ids) + tail + end,
    st.lists(_DIGIT_RUN, min_size=2, max_size=3),
    st.sampled_from([b" ", b"\t", b" \t "]),
    st.sampled_from([b"", b" ", b" # note", b"#-x"]),
    st.sampled_from([b"\n", b"\r\n"]),
)


@settings(max_examples=400, deadline=None)
@given(body=st.lists(st.one_of(_ROW, _ROW_PIECE, _DIGIT_RUN), max_size=12).map(b"".join))
def test_readers_agree_with_line_by_line_reference(tmp_path_factory, body):
    """parse_edge_list and load_degree_file give the reference's rows, or
    fail at the reference's first bad line."""
    path = tmp_path_factory.getbasetemp() / "rows.txt"
    path.write_bytes(body)
    pairs, triples = int_rows_reference(body, 2), int_rows_reference(body, 3)
    if isinstance(pairs, int):
        with pytest.raises(ParseError, match=f"^line {pairs}: "):
            parse_edge_list(io.BytesIO(body))
    else:
        assert parse_edge_list(io.BytesIO(body)).arcs.tolist() == pairs
    if isinstance(triples, int):
        with pytest.raises(ParseError, match=f": line {triples}: "):
            load_degree_file(path)
    elif not triples:
        with pytest.raises(ValueError, match="no degree triples"):
            load_degree_file(path)
    else:
        assert load_degree_file(path).tolist() == triples


SNAP_TABLE = [
    ("wiki-Vote.txt.gz", 7115, 100762, 0.971),
    ("soc-Slashdot0902.txt.gz", 82168, 504230, 0.274),
]


@pytest.mark.parametrize("fname,nodes,edges,prop", SNAP_TABLE)
def test_snap_reference_counts(fname, nodes, edges, prop):
    """Published node/edge counts for the two desk-scale reference datasets
    (skipped until scripts/fetch_snap.py has downloaded them)."""
    path = DATA / "snap" / fname
    if not path.exists():
        pytest.skip(f"data/snap/{fname} not downloaded (see scripts/fetch_snap.py)")
    g, stats = ingest_path(path)
    assert stats.n == nodes
    assert stats.directed + stats.undirected == edges
    assert stats.proportion_directed == pytest.approx(prop, abs=5e-4)
