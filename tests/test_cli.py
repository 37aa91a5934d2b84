import errno
import fcntl
import io
import os
import random
import subprocess
import sys

import pytest

from aakit import ALL, AssociativeArray, KeyPrefix, KeyRange, KeySet, dominant_eigenpair
from aakit.cli import parse_keyspec, run
from aakit.io import read_triples, write_triples

from conftest import DATA_DIR, GOLDEN_DIR
from helpers import child_env


def write_aat(path, arr):
    with open(path, "wb") as f:
        write_triples(arr, f)
    return str(path)


def load_aat(path):
    with open(path, "rb") as f:
        return read_triples(f)


def aa(d):
    return AssociativeArray(d)


# -- key spec parsing ---------------------------------------------------------


def test_parse_keyspec_forms():
    assert parse_keyspec("all") is ALL
    assert parse_keyspec("set:a,b") == KeySet(["a", "b"])
    assert parse_keyspec("range:06..09") == KeyRange("06", "09")
    assert parse_keyspec("prefix:08") == KeyPrefix("08")


@pytest.mark.parametrize("text", ["", "bogus", "range:x", "glob:*", "setx"])
def test_parse_keyspec_rejects(text):
    with pytest.raises(ValueError):
        parse_keyspec(text)


# -- ingest -------------------------------------------------------------------


def test_ingest_table(tmp_path, songs, capsys):
    out = tmp_path / "songs.aat"
    assert run(["ingest", str(DATA_DIR / "songs.csv"), "-o", str(out)]) == 0
    assert load_aat(out) == songs
    sink = io.BytesIO()
    write_triples(songs, sink)
    assert out.read_bytes() == sink.getvalue()


def test_ingest_triples_passthrough(tmp_path, genre_artist):
    src = write_aat(tmp_path / "g.aat", genre_artist)
    out = tmp_path / "copy.aat"
    assert run(["ingest", src, "--format", "triples", "-o", str(out)]) == 0
    assert load_aat(out) == genre_artist


def test_ingest_to_stdout(tmp_path, capsysbinary):
    src = write_aat(tmp_path / "a.aat", aa({("r", "c"): 2.0}))
    assert run(["ingest", src, "--format", "triples"]) == 0
    assert capsysbinary.readouterr().out == b"%aa-triples 1\nr\tc\tn\t2\n"


# A sorted, screened file reads back to its own bytes.  An unsorted one goes
# through the builder, which sorts and drops a fold to 0, a -0, an empty text
# and the smaller repeat.
@pytest.mark.parametrize("data,want", [
    *((path.read_bytes(),) * 2 for path in [DATA_DIR / "genre_artist.aat", *sorted(GOLDEN_DIR.glob("*.aat"))]),
    (b"%aa-triples 1\nb\ty\tn\t2\na\tx\tn\t-1\nb\tx\tt\t\na\tx\tn\t0\na\ty\tn\t-0\na\tz\tt\thi\nb\ty\tn\t1\n",
     b"%aa-triples 1\na\tz\tt\thi\nb\ty\tn\t2\n"),
], ids=["genre_artist", *(path.stem for path in sorted(GOLDEN_DIR.glob("*.aat"))), "unsorted"])
def test_ingest_of_triples_writes_canonical_bytes(tmp_path, data, want):
    src, out = tmp_path / "in.aat", tmp_path / "out.aat"
    src.write_bytes(data)
    assert run(["ingest", "--format", "triples", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == want


def test_a_file_of_many_pieces_is_written_alike_and_reads_back_to_itself(tmp_path, capsysbinary):
    # About 200,000 unsorted lines, with repeated cells, span many of the reader's and the writers' pieces.
    rng = random.Random(25)
    lines = ["%aa-triples 1"]
    for _ in range(200000):
        r, c = rng.randrange(4000), rng.randrange(300)
        value = f"n\t{rng.randrange(100)}" if rng.random() < 0.8 else f"t\tw {rng.randrange(50)}"
        lines.append(f"r{r}\tc{c}\t{value}")
    src, out, again, dot = (tmp_path / name for name in ("in.aat", "out.aat", "again.aat", "out.dot"))
    src.write_text("\n".join(lines) + "\n")
    for argv, file in [(["ingest", "--format", "triples", str(src)], out), (["export-dot", str(out)], dot)]:
        assert run([*argv, "-o", str(file)]) == run(argv) == 0
        assert capsysbinary.readouterr() == (file.read_bytes(), b"")
    assert out.read_bytes().count(b"\n") > 150000
    assert run(["ingest", "--format", "triples", str(out), "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_ingest_missing_file_is_exit_1(tmp_path, capsys):
    assert run(["ingest", str(tmp_path / "nope.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aakit: ") and err.count("\n") == 1


# -- op ----------------------------------------------------------------------


def test_op_add_mult_prod(tmp_path):
    a = write_aat(tmp_path / "a.aat", aa({("r", "c"): 2.0, ("r", "d"): 1.0}))
    b = write_aat(tmp_path / "b.aat", aa({("r", "c"): 3.0, ("s", "c"): 4.0}))
    out = tmp_path / "out.aat"

    assert run(["op", "add", a, b, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "c"): 5.0, ("r", "d"): 1.0, ("s", "c"): 4.0})

    assert run(["op", "mult", a, b, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "c"): 6.0})

    assert run(["op", "add", a, b, "--semiring", "maxplus", "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "c"): 3.0, ("r", "d"): 1.0, ("s", "c"): 4.0})

    c = write_aat(tmp_path / "c.aat", aa({("c", "z"): 10.0, ("d", "z"): 100.0}))
    assert run(["op", "prod", a, c, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "z"): 120.0})


def test_op_mask_and_delete(tmp_path):
    a = write_aat(tmp_path / "a.aat", aa({("r", "c"): 2.0, ("r", "d"): 7.0}))
    m = write_aat(tmp_path / "m.aat", aa({("r", "c"): 1.0}))
    out = tmp_path / "out.aat"
    assert run(["op", "mask", a, m, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "c"): 2.0})
    assert run(["op", "delete", a, m, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("r", "d"): 7.0})


def test_malformed_input_file_names_itself(tmp_path, capsys):
    good = write_aat(tmp_path / "good.aat", aa({("r", "c"): 2.0}))
    bad = tmp_path / "bad.aat"
    bad.write_bytes(b"%aa-triples 1\nr\tc\tq\t2\n")
    csv_file = tmp_path / "bad.csv"
    csv_file.write_bytes(b",x\nr,1\nr,2\n")
    table = str(tmp_path / "table")
    for argv, path, message in [
        (["op", "add", good, str(bad)], bad, "line 2: unknown type tag 'q'"),
        (["ingest", str(csv_file)], csv_file, "duplicate row key 'r'"),
        (["store", "insert", table, str(bad)], bad, "line 2: unknown type tag 'q'"),
    ]:
        assert run(argv) == 1
        assert capsys.readouterr().err == f"aakit: {path}: {message}\n"


H = "%aa-triples 1\n"
PATTERN = H + "x\tk1\tn\t1\nx\tk2\tn\t1\ny\tk2\tn\t1\n"
KEYS = H + "k1\tp\tn\t1\nk2\tp\tn\t1\nk2\tq\tn\t1\n"
NUMS = H + "a\tx\tn\t1\nb\ty\tn\t2\n"
MORE = H + "a\tx\tn\t3\nc\tz\tn\t4\n"
THREE_ROWS = NUMS + "c\tz\tn\t4\n"
KEYED_T = H + "a\tt\tn\t1\nt\tt\tn\t2\n"  # a numeric column keyed t is no text
SONGS = (GOLDEN_DIR / "songs.aat").read_text()


@pytest.mark.parametrize("kind,a,b,semiring,out,err", [
    # Two patterns under arith count the middle keys a row and a column share; a 2 in a takes the general fold.
    ("prod", PATTERN, KEYS, "arith", H + "x\tp\tn\t2\nx\tq\tn\t1\ny\tp\tn\t1\ny\tq\tn\t1\n", ""),
    ("prod", PATTERN.replace("k1\tn\t1", "k1\tn\t2"), KEYS, "arith",
     H + "x\tp\tn\t3\nx\tq\tn\t1\ny\tp\tn\t1\ny\tq\tn\t1\n", ""),
    ("prod", PATTERN, KEYS, "maxplus", H + "x\tp\tn\t2\nx\tq\tn\t2\ny\tp\tn\t2\ny\tq\tn\t2\n", ""),
    ("add", NUMS, MORE, "maxplus", H + "a\tx\tn\t3\nb\ty\tn\t2\nc\tz\tn\t4\n", ""),
    ("add", KEYED_T, KEYED_T, "maxplus", KEYED_T, ""),
    # Under max, min and the lattice's operations, equal rows from two loads fold to themselves.
    ("add", THREE_ROWS, THREE_ROWS, "maxmin", THREE_ROWS, ""),
    ("mult", SONGS, SONGS, "lattice", SONGS, ""),
    # A file whose only text record is its last is not marked text-free, so maxplus refuses it.
    ("add", NUMS, MORE + "d\tw\tt\tword\n", "maxplus", "",
     "aakit: semiring 'maxplus' is numeric-only but right operand holds text at ('d', 'w')\n"),
    ("add", SONGS, SONGS, "arith", "",
     "aakit: semiring 'arith' is numeric-only but left operand holds text at ('053013ktnA1', 'Artist')\n"),
])
def test_op_writes_exact_bytes_or_names_the_first_text_cell(tmp_path, capsys, kind, a, b, semiring, out, err):
    paths = [tmp_path / "a.aat", tmp_path / "b.aat"]
    for path, text in zip(paths, (a, b)):
        path.write_text(text)
    assert run(["op", kind, *map(str, paths), "--semiring", semiring]) == (1 if err else 0)
    assert capsys.readouterr() == (out, err)


def test_op_unknown_semiring_is_exit_1(tmp_path, capsys):
    a = write_aat(tmp_path / "a.aat", aa({("r", "c"): 2.0}))
    assert run(["op", "add", a, a, "--semiring", "frobnicate"]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_op_text_under_numeric_semiring_is_exit_1(tmp_path, capsys):
    a = write_aat(tmp_path / "a.aat", aa({("r", "c"): "hi"}))
    assert run(["op", "add", a, a]) == 1
    assert capsys.readouterr().err.startswith("aakit: ")


# -- select / pattern ---------------------------------------------------------


def test_select_specs(tmp_path, songs):
    src = write_aat(tmp_path / "songs.aat", songs)
    out = tmp_path / "out.aat"
    assert run(["select", src, "--rows", "range:06..09", "-o", str(out)]) == 0
    got = load_aat(out)
    assert got.nnz == 8
    assert set(got.row_keys) == {"063012ktnA1", "082812ktnA1"}
    assert run(["select", src, "--cols", "set:Artist,Genre", "-o", str(out)]) == 0
    assert load_aat(out).col_keys == ("Artist", "Genre")
    assert run(["select", src, "--rows", "prefix:0530", "-o", str(out)]) == 0
    assert len(load_aat(out).row_keys) == 2


def test_select_bad_spec_is_exit_1(tmp_path, songs, capsys):
    src = write_aat(tmp_path / "songs.aat", songs)
    assert run(["select", src, "--rows", "between:a-b"]) == 1
    assert capsys.readouterr().err.startswith("aakit: ")


def test_pattern_commands(tmp_path, genre_artist, capsys):
    perm = write_aat(tmp_path / "p.aat",
                     aa({("a", "y"): 1.0, ("b", "x"): 1.0}))
    assert run(["pattern", "perm", perm]) == 0
    assert capsys.readouterr().out == "true\n"

    g = write_aat(tmp_path / "g.aat", genre_artist)
    assert run(["pattern", "perm", g]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["pattern", "clique", g]) == 0
    assert capsys.readouterr().out == "false\n"

    clique = write_aat(tmp_path / "c.aat",
                       aa({("a", "x"): 1.0, ("a", "y"): 2.0,
                           ("b", "x"): 3.0, ("b", "y"): 4.0}))
    assert run(["pattern", "clique", clique]) == 0
    assert capsys.readouterr().out == "true\n"


# -- graph / analysis commands --------------------------------------------------


def test_degree_axes(tmp_path, songs):
    src = write_aat(tmp_path / "songs.aat", songs)
    out = tmp_path / "deg.aat"
    assert run(["degree", src, "-o", str(out)]) == 0
    got = load_aat(out)
    assert got.col_keys == ("deg",) and all(v == 4.0 for _, _, v in got)
    assert run(["degree", src, "--axis", "col", "-o", str(out)]) == 0
    assert set(load_aat(out).row_keys) == {"Artist", "Date", "Duration", "Genre"}


def test_correlate_logical(tmp_path, genre_artist):
    src = write_aat(tmp_path / "g.aat", genre_artist)
    out = tmp_path / "corr.aat"
    assert run(["correlate", src, "--logical", "-o", str(out)]) == 0
    got = load_aat(out)
    assert got.get("Electronic", "Electronic") == 2.0
    assert got.get("Pop", "Rock") == 1.0
    assert got.nnz == 5


def test_correlate_text_without_logical_is_exit_1(tmp_path, songs, capsys):
    src = write_aat(tmp_path / "songs.aat", songs)
    assert run(["correlate", src]) == 1
    assert capsys.readouterr().err.startswith("aakit: ")


def test_bfs_command(tmp_path, genre_artist):
    from aakit import symmetrize

    src = write_aat(tmp_path / "sym.aat", symmetrize(genre_artist))
    out = tmp_path / "front.aat"
    assert run(["bfs", src, "--sources", "Kitten", "--steps", "1",
                "-o", str(out)]) == 0
    got = load_aat(out)
    assert {c for (_, c), _ in got.items()} == {"Pop", "Rock"}


def test_rank_and_nullspace_commands(tmp_path, capsys):
    src = write_aat(tmp_path / "m.aat",
                    aa({("a", "x"): 1.0, ("a", "y"): 2.0,
                        ("b", "x"): 2.0, ("b", "y"): 4.0}))
    assert run(["rank", src]) == 0
    assert capsys.readouterr().out == "1\n"
    out = tmp_path / "ns.aat"
    assert run(["nullspace", src, "-o", str(out)]) == 0
    ns = load_aat(out)
    assert ns.col_keys == ("ns1",)
    assert ns.get("x", "ns1") == pytest.approx(-0.8944271909999159)


def test_eigen_command_exact_lambda_line(tmp_path, capsys):
    arr = aa({("a", "a"): 2.0, ("b", "b"): 1.0})
    src = write_aat(tmp_path / "d.aat", arr)
    res = dominant_eigenpair(arr)
    lines = f"lambda 2\niterations {res.iterations}\nresidual {res.residual:.12g}\n"
    assert run(["eigen", src]) == 0
    assert capsys.readouterr() == (lines, "")
    out = tmp_path / "v.aat"
    assert run(["eigen", src, "-o", str(out)]) == 0  # the same lines, and the vector in the file
    assert capsys.readouterr() == (lines, "")
    sink = io.BytesIO()
    write_triples(res.eigenvector, sink)
    assert out.read_bytes() == sink.getvalue()
    vec = load_aat(out)
    assert vec.col_keys == ("v1",)
    assert vec.get("a", "v1") == pytest.approx(1.0, abs=1e-6)


def test_eigen_command_normalizes_an_iterate_past_the_float_range(tmp_path, capsys):
    src = tmp_path / "big.aat"
    src.write_bytes(b"%aa-triples 1\na\ta\tn\t1e160\n")
    assert run(["eigen", str(src)]) == 0
    assert capsys.readouterr() == ("lambda 1e+160\niterations 1\nresidual 0\n", "")


def test_eigen_tie_is_exit_1(tmp_path, capsys):
    src = write_aat(tmp_path / "tie.aat", aa({("a", "b"): 1.0, ("b", "a"): 1.0}))
    assert run(["eigen", src, "--maxiter", "50"]) == 1
    assert "50" in capsys.readouterr().err


def test_export_dot(tmp_path, genre_artist):
    src = write_aat(tmp_path / "g.aat", genre_artist)
    out = tmp_path / "g.dot"
    assert run(["export-dot", src, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph aa {\n")
    assert '"Electronic" -> "Bandayde" [label="1"];' in text
    assert text.endswith("}\n")


# -- one output path ------------------------------------------------------------

# Every command that writes an array; {name} stands for a file the test writes.
ARRAY_COMMANDS = [
    ["ingest", "{csv}"],
    ["ingest", "{genres}", "--format", "triples"],
    *(["op", kind, "{a}", "{b}"] for kind in ("add", "mult", "prod", "mask", "delete")),
    ["op", "add", "{genres}", "{genres}"],
    ["select", "{songs}", "--cols", "set:Artist,Genre"],
    ["degree", "{songs}", "--axis", "col"],
    ["correlate", "{songs}", "--logical"],
    ["bfs", "{sym}", "--sources", "Kitten", "--steps", "1"],
    ["bfs", "{genres}", "--sources", "Electronic", "--steps", "1"],
    ["nullspace", "{m}"],
    ["nullspace", "{genres}"],
    ["export-dot", "{genres}"],
    ["store", "select", "{table}", "--rows", "prefix:0"],
]


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_an_array_command_writes_the_same_bytes_to_stdout_and_to_o(tmp_path, songs, genre_artist, capsysbinary, argv):
    from aakit import symmetrize

    files = {
        "csv": str(DATA_DIR / "songs.csv"),
        "genres": write_aat(tmp_path / "g.aat", genre_artist),
        "songs": write_aat(tmp_path / "songs.aat", songs),
        "a": write_aat(tmp_path / "a.aat", aa({("r", "c"): 2.0, ("r", "d"): 1.0})),
        "b": write_aat(tmp_path / "b.aat", aa({("c", "z"): 3.0, ("d", "z"): 1.0, ("r", "c"): 4.0})),
        "sym": write_aat(tmp_path / "sym.aat", symmetrize(genre_artist)),
        "m": write_aat(tmp_path / "m.aat", aa({("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 2.0, ("b", "y"): 4.0})),
        "table": str(tmp_path / "table"),
    }
    assert run(["store", "init", files["table"]]) == run(["store", "insert", files["table"], files["songs"]]) == 0
    capsysbinary.readouterr()
    argv = [arg.format(**files) for arg in argv]
    out = tmp_path / "out"
    assert run([*argv, "-o", str(out)]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert out.read_bytes().count(b"\n") > 1  # more than a header
    assert run(argv) == 0
    assert capsysbinary.readouterr() == (out.read_bytes(), b"")


def test_a_command_that_reports_prints_only_its_line(tmp_path, genre_artist, capsys):
    g = write_aat(tmp_path / "g.aat", genre_artist)
    table = str(tmp_path / "table")
    for argv, line in [
        (["pattern", "perm", g], "false\n"),
        (["pattern", "clique", g], "false\n"),
        (["rank", g], "2\n"),
        (["store", "init", table], ""),
        (["store", "insert", table, g], "records 4\n"),
        (["store", "delete", table, g], "tombstones 4\n"),
        (["store", "compact", table], "segments 2 -> 0\n"),
    ]:
        assert run(argv) == 0
        assert capsys.readouterr() == (line, "")


# -- store -------------------------------------------------------------------


def test_store_lifecycle(tmp_path, capsys):
    table = str(tmp_path / "table")
    batch = write_aat(tmp_path / "b.aat", aa({("a", "x"): 1.0, ("b", "y"): 2.0}))
    mask = write_aat(tmp_path / "m.aat", aa({("a", "x"): 1.0}))
    out = tmp_path / "sel.aat"

    assert run(["store", "init", table]) == 0
    assert run(["store", "insert", table, batch]) == 0
    assert capsys.readouterr().out == "records 2\n"
    assert run(["store", "select", table, "-o", str(out)]) == 0
    assert load_aat(out) == aa({("a", "x"): 1.0, ("b", "y"): 2.0})
    assert run(["store", "delete", table, mask]) == 0
    assert capsys.readouterr().out == "tombstones 1\n"
    assert run(["store", "select", table, "--rows", "all", "-o", str(out)]) == 0
    assert load_aat(out) == aa({("b", "y"): 2.0})
    assert run(["store", "compact", table]) == 0
    assert capsys.readouterr().out == "segments 2 -> 1\n"


def test_a_file_round_trips_through_the_store_to_its_own_bytes(tmp_path, capsysbinary):
    # Before and after a compaction; its deletion then compacts the table to nothing.
    table, file = str(tmp_path / "t"), DATA_DIR / "genre_artist.aat"
    for argv, out in [
        (["store", "init", table], b""),
        (["store", "insert", table, str(file)], b"records 4\n"),
        (["store", "select", table], file.read_bytes()),
        (["store", "compact", table], b"segments 1 -> 1\n"),
        (["store", "select", table], file.read_bytes()),
        (["store", "delete", table, str(file)], b"tombstones 4\n"),
        (["store", "compact", table], b"segments 2 -> 0\n"),
        (["store", "select", table], b"%aa-triples 1\n"),
    ]:
        assert run(argv) == 0
        assert capsysbinary.readouterr() == (out, b"")


def test_store_select_writes_what_select_writes_from_the_whole_table(tmp_path, capsys):
    table, whole, got, want = str(tmp_path / "t"), tmp_path / "whole.aat", tmp_path / "got.aat", tmp_path / "want.aat"
    specs = [["--cols", "set:Artist,Genre"], ["--cols", "prefix:D"], ["--cols", "range:Date..Genre"],
             # rows of both segments, with unselected rows between them
             ["--rows", "set:053013ktnA1,082812ktnA1,Pop"],
             ["--rows", "set:053013ktnA1,082812ktnA1,Pop", "--cols", "set:Artist,Genre"],
             ["--rows", "range:063012ktnA1..Pop"]]
    assert run(["store", "init", table]) == 0
    for batch in (GOLDEN_DIR / "songs.aat", DATA_DIR / "genre_artist.aat"):
        assert run(["store", "insert", table, str(batch)]) == 0
    for compacted in (False, True):
        if compacted:
            capsys.readouterr()
            assert run(["store", "compact", table]) == 0
            assert capsys.readouterr().out == "segments 2 -> 1\n"
        assert run(["store", "select", table, "-o", str(whole)]) == 0
        for spec in specs:
            assert run(["store", "select", table, *spec, "-o", str(got)]) == 0
            assert run(["select", str(whole), *spec, "-o", str(want)]) == 0
            assert got.read_bytes() == want.read_bytes()


def test_a_store_select_of_a_numeric_column_beside_text_adds_under_maxplus(tmp_path, capsys):
    table, n1, sel, total = (str(tmp_path / name) for name in ("t", "n1.aat", "sel.aat", "sum.aat"))
    n1_bytes = b"%aa-triples 1\n053013ktnA1\tn1\tn\t1\n053013ktnA2\tn1\tn\t2\n"
    (tmp_path / "n1.aat").write_bytes(n1_bytes)
    for argv in (["store", "init", table], ["store", "insert", table, str(GOLDEN_DIR / "songs.aat")],
                 ["store", "insert", table, n1], ["store", "select", table, "--cols", "set:n1", "-o", sel],
                 ["op", "add", sel, sel, "--semiring", "maxplus", "-o", total]):
        assert run(argv) == 0
    assert (tmp_path / "sel.aat").read_bytes() == (tmp_path / "sum.aat").read_bytes() == n1_bytes


@pytest.mark.filterwarnings("default")  # the warning must reach run even where warnings are errors
def test_a_torn_tail_is_one_warning_line(tmp_path, capsysbinary):
    table, file = tmp_path / "t", DATA_DIR / "genre_artist.aat"
    assert run(["store", "init", str(table)]) == run(["store", "insert", str(table), str(file)]) == 0
    segment = table / "seg-00000001.aat"
    segment.write_bytes(segment.read_bytes()[:-2])
    capsysbinary.readouterr()
    assert run(["store", "select", str(table)]) == 0
    assert capsysbinary.readouterr() == (
        b"".join(file.read_bytes().splitlines(keepends=True)[:-1]),
        b"aakit: warning: segment seg-00000001.aat: ignoring truncated final line\n")


def test_a_store_write_that_fails_exits_1_naming_the_file(tmp_path, monkeypatch, capsys):
    table = tmp_path / "table"
    batch = write_aat(tmp_path / "b.aat", aa({("a", "x"): 1.0}))
    assert run(["store", "init", str(table)]) == 0

    def fail(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", fail)
    assert run(["store", "insert", str(table), batch]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aakit: fsync of {str(table / 'seg-00000001.aat.tmp')!r} failed: Input/output error\n"


def test_store_write_under_a_held_lock_names_the_holder(tmp_path, capsys):
    table = tmp_path / "table"
    lock = table / "LOCK"
    batch = write_aat(tmp_path / "b.aat", aa({("a", "x"): 1.0}))
    assert run(["store", "init", str(table)]) == 0
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)  # a writer, as the store takes one
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        os.ftruncate(fd, 0)  # init's writer left its PID in LOCK
        os.write(fd, b"4242\n")
        assert run(["store", "insert", str(table), batch]) == 1
        err = capsys.readouterr().err
        assert err == f"aakit: table {str(table)!r} is open read-only: {str(lock)!r} is held by PID 4242\n"
    finally:
        os.close(fd)
    # The flock went with the descriptor; the LOCK file left behind blocks nobody.
    assert lock.read_text() == "4242\n"
    assert run(["store", "insert", str(table), batch]) == 0
    assert capsys.readouterr().out == "records 1\n"
    assert lock.read_text() == f"{os.getpid()}\n"  # the insert's writer


def test_store_unlock_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "table"
    assert run(["store", "init", str(table)]) == 0
    (table / "LOCK").write_text("4242\n")
    assert run(["store", "unlock", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'unlock'" in captured.err
    assert (table / "LOCK").read_text() == "4242\n"


def test_store_select_missing_table_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "typo"
    assert run(["store", "select", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err
    assert not missing.exists()


def test_store_select_directory_without_manifest_is_exit_1(tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    assert run(["store", "select", str(bare)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(bare) in captured.err
    assert "MANIFEST is missing" in captured.err
    assert list(bare.iterdir()) == []
    assert run(["store", "init", str(bare)]) == 0
    assert run(["store", "select", str(bare)]) == 0
    assert capsys.readouterr().out == "%aa-triples 1\n"


@pytest.mark.parametrize("kind", ["insert", "delete", "compact"])
@pytest.mark.parametrize("where", ["tlb", "nosuch/deep/dir", "bare"])
def test_store_write_to_a_path_with_no_table_is_exit_1_and_creates_nothing(tmp_path, capsys, kind, where):
    # A typo for a table, a missing deep path, and a directory without MANIFEST.
    batch = write_aat(tmp_path / "b.aat", aa({("a", "x"): 1.0}))
    path = tmp_path / where
    if where == "bare":
        path.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run(["store", kind, str(path), *([batch] if kind != "compact" else [])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aakit: no table at {str(path)!r}: MANIFEST is missing\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert run(["store", "init", str(path)]) == 0
    assert run(["store", kind, str(path), *([batch] if kind != "compact" else [])]) == 0


@pytest.mark.parametrize("where", ["tlb", "nosuch/deep/dir", "bare", "afile"])
def test_store_select_on_a_path_with_no_table_prints_what_a_write_prints(tmp_path, capsys, where):
    (tmp_path / "bare").mkdir()
    (tmp_path / "afile").write_bytes(b"")
    path = tmp_path / where
    before = sorted(tmp_path.rglob("*"))
    assert run(["store", "select", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aakit: no table at {str(path)!r}: MANIFEST is missing\n"
    assert run(["store", "compact", str(path)]) == 1
    assert capsys.readouterr().err == captured.err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("where", ["afile", "afile/sub"])
def test_store_init_on_a_file_is_exit_1_and_creates_nothing(tmp_path, capsys, where):
    (tmp_path / "afile").write_bytes(b"")
    path = tmp_path / where
    assert run(["store", "init", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aakit: no table at {str(path)!r}: not a directory\n"
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "afile"]


def test_store_insert_needs_file(tmp_path, capsys):
    assert run(["store", "insert", str(tmp_path / "t")]) == 2
    assert run(["store", "delete", str(tmp_path / "t")]) == 2


def test_store_write_reads_its_file_before_it_opens_the_table(tmp_path, capsys):
    # A bad input file fails the command before the table is created or locked.
    table = tmp_path / "newdir"
    missing = tmp_path / "missing.aat"
    bad = tmp_path / "bad.aat"
    bad.write_bytes(b"%aa-triples 1\nr\tc\tq\t2\n")
    for kind, path in [("insert", missing), ("delete", bad)]:
        assert run(["store", kind, str(table), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err
        assert not table.exists()


# -- exit codes ----------------------------------------------------------------


def test_usage_errors_are_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["op", "xor", "a", "b"]) == 2
    assert run(["bfs", "in.aat", "--steps", "one", "--sources", "a"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["store", "compact", "table", "x.aat"],
    ["store", "init", "table", "-o", "o.aat"],
    ["store", "select", "table", "x.aat"],
    ["store", "insert", "table", "b.aat", "--rows", "all"],
    ["op", "mask", "a.aat", "b.aat", "--semiring", "arith"],
    ["op", "delete", "a.aat", "b.aat", "--semiring", "arith"],
])
def test_arguments_a_command_does_not_read_are_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("a.aat", "b.aat", "x.aat"):
        write_aat(tmp_path / name, aa({("r", "c"): 1.0}))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not (tmp_path / "table").exists()
    assert not (tmp_path / "o.aat").exists()


def test_help_is_exit_0(capsys):
    assert run(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def run_fresh(module, *argv, **kwargs):
    """Run the CLI as ``python -m module`` in a new interpreter."""
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, env=child_env(), timeout=60, **kwargs)


@pytest.mark.parametrize("module", ["aakit", "aakit.cli"])
def test_python_dash_m_prints_usage(module):
    proc = run_fresh(module, "--help", text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: aakit")


def test_shared_parser_survives_error_exits(tmp_path, capsysbinary):
    # The parser is built once per process; exits 2 and 1 must leave it as new.
    table = str(tmp_path / "table")
    batch = write_aat(tmp_path / "b.aat", aa({("a", "x"): 1.0, ("b", "y"): "two"}))
    assert run(["store", "init", table]) == 0
    assert run(["store", "insert", table, batch]) == 0
    fresh = run_fresh("aakit", "store", "select", table)
    capsysbinary.readouterr()
    assert run(["store", "insert", table]) == 2
    assert run(["store", "select", table, "--rows", "set:a", "--cols", "bogus"]) == 1
    capsysbinary.readouterr()
    assert run(["store", "select", table]) == fresh.returncode == 0
    assert capsysbinary.readouterr() == (fresh.stdout, fresh.stderr)
    assert fresh.stdout == b"%aa-triples 1\na\tx\tn\t1\nb\ty\tt\ttwo\n"
