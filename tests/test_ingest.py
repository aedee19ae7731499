import gzip
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    directed_pairs,
    edge_sets,
    int_rows_reference,
    random_simple_graph,
    undirected_pairs,
)
from pdcm.degrees import load_degree_file
from pdcm.ingest import (
    _LINE,
    IngestStats,
    ParseError,
    _classify,
    _tokenize,
    ingest_path,
    parse_edge_list,
    read_pdgraph,
    to_partially_directed,
    write_pdgraph,
)
from pdcm.simplify import validate_simple_graph

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

    def test_stats_json_is_flat(self):
        stats = IngestStats(3, 1, 1, 0.5, 0, 0)
        assert stats.to_json() == (
            '{"n": 3, "directed": 1, "undirected": 1, '
            '"proportion_directed": 0.5, "self_arcs_dropped": 0, '
            '"duplicates_dropped": 0}'
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
        assert g.degree_triples().tolist() == [
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


CANONICAL_LINE = st.builds("{} {} {}".format, st.sampled_from("DU"),
                           st.integers(1, 10**10 - 1), st.integers(1, 10**10 - 1))


def edit_line(line, at, text):
    """line with the character at position ``at`` (mod its length + 1)
    replaced by text; text = "" deletes it."""
    at %= len(line) + 1
    return line[:at] + text + line[at + 1:]


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
        assert h.degree_triples().tolist() == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 0],
            [0, 0, 0],
        ]

    def test_reader_errors(self, tmp_path):
        path = tmp_path / "bad.pdgraph"
        path.write_text("not a header\n")
        with pytest.raises(ParseError, match="header"):
            read_pdgraph(path)
        path.write_text("# pdgraph n=2\nD 1 5\n")
        with pytest.raises(ParseError, match="line 2"):
            read_pdgraph(path)
        path.write_text("# pdgraph n=2\nX 1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            read_pdgraph(path)

    @pytest.mark.parametrize(
        "body,where,what",
        [
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
        ],
    )
    def test_rejects_non_canonical_form(self, tmp_path, body, where, what):
        """The reader takes only what write_pdgraph emits; a reciprocal D
        pair, say, is an error rather than an undirected edge, and so is a
        vertex count that int() would take but the writer never writes.  A
        body that opens with its own header replaces the usual one."""
        path = tmp_path / "bad.pdgraph"
        header = "" if body.startswith("# pdgraph") else "# pdgraph n=3\n"
        path.write_text(header + body)
        with pytest.raises(ParseError, match=f"{where}: .*{what}"):
            read_pdgraph(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        CANONICAL_LINE,
        st.builds(edit_line, CANONICAL_LINE, st.integers(0, 24), st.sampled_from(
            ["", " ", "\t", "\n", "D", "U", "0", "7", "+", "x", "#"])),
    ), max_size=6))
    def test_tokenizer_takes_exactly_the_line_grammar(self, rows):
        """The one-pass tokenizer accepts a body exactly when every line
        matches the canonical line grammar, and then returns its ids."""
        body = "".join(row + "\n" for row in rows).encode()
        lines = body.split(b"\n")[:-1]
        tokens = _tokenize(body)
        grammatical = all(_LINE.fullmatch(line) for line in lines)
        assert (tokens is not None) == grammatical
        if grammatical:
            assert tokens[1].tolist() == [
                [int(x) for x in line.split()[1:]] for line in lines]

    def test_vertex_count_checked_at_entry(self, tmp_path):
        path = tmp_path / "huge.pdgraph"
        path.write_text(f"# pdgraph n={2**31 + 1}\n")
        with pytest.raises(ParseError, match="line 1: .*limit"):
            read_pdgraph(path)
        with pytest.raises(ValueError, match="limit"):
            _classify(np.zeros((0, 2), dtype=np.int64), 2**31 + 1)


def test_degree_file_loader_accepts_pdgraph(tmp_path):
    g, _ = ingest_path(DATA / "fixture_edges.txt")
    path = tmp_path / "g.pdgraph"
    write_pdgraph(g, path)
    triples = load_degree_file(path)
    assert triples.tolist() == g.degree_triples().tolist()


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
