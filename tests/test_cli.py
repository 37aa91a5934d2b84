import errno
import fcntl
import io
import os
import subprocess
import sys

import pytest

from aakit import ALL, AssociativeArray, KeyPrefix, KeyRange, KeySet, dominant_eigenpair
from aakit.cli import parse_keyspec, run
from aakit.io import read_triples, write_triples

from conftest import DATA_DIR
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
    ["select", "{songs}", "--cols", "set:Artist,Genre"],
    ["degree", "{songs}", "--axis", "col"],
    ["correlate", "{songs}", "--logical"],
    ["bfs", "{sym}", "--sources", "Kitten", "--steps", "1"],
    ["nullspace", "{m}"],
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
