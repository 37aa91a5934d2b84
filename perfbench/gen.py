"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and the size parameters from
``workloads.json``; the same seed gives the same inputs.  Keys are
zero-padded so that their text order is their numeric order, which makes
range and prefix selections cover a known share of the keys.
"""

from __future__ import annotations

import csv
import io
import random

from oracle import record_line, TRIPLES_MAGIC


def triples_text(records) -> str:
    """A triple file holding the records as given: any order, duplicates allowed."""
    return TRIPLES_MAGIC + "\n" + "".join(record_line(r, c, v) for r, c, v in records)


# -- correlate-pipeline -------------------------------------------------------------


def incidence(rng: random.Random, p: dict) -> list:
    """Document x term records with uniform columns, shuffled, with some repeated cells.

    Each document draws ``terms_per_doc`` distinct terms uniformly, so every
    column holds about docs * terms_per_doc / terms entries and no hub
    column dominates the product.  A ``dup_share`` of the records is
    repeated with a fresh value; the triple reader keeps the larger.
    """
    records = []
    for d in range(p["docs"]):
        for t in rng.sample(range(p["terms"]), p["terms_per_doc"]):
            records.append((f"doc{d:06d}", f"term{t:06d}", float(rng.randint(1, p["max_value"]))))
    repeats = rng.sample(records, int(len(records) * p["dup_share"]))
    records += [(r, c, float(rng.randint(1, p["max_value"]))) for r, c, _ in repeats]
    rng.shuffle(records)
    return records


# -- select-mix ----------------------------------------------------------------------


def vertex(i: int) -> str:
    return f"v{i:06d}"


def graph(rng: random.Random, p: dict) -> dict:
    """A uniform random directed graph with integer weights 1..max_value."""
    n = p["vertices"]
    edges: dict = {}
    while len(edges) < p["edges"]:
        edges[(vertex(rng.randrange(n)), vertex(rng.randrange(n)))] = float(
            rng.randint(1, p["max_value"])
        )
    return edges


SONG_COLUMNS = ("Album", "Artist", "Date", "Duration", "Genre", "Label", "Plays")
GENRES = ("Electronic", "Rock", "Pop", "Jazz", "Folk", "Ambient", "Hip hop", "Classical")


def song_table(rng: random.Random, p: dict) -> tuple[str, dict]:
    """A song-table-shaped CSV and the cells it should load as.

    Row keys look like the paper's track ids (mmddyy, label, A, serial).
    Plays is numeric; the other columns are text, some with commas that
    CSV must quote.  A ``blank_share`` of cells is left empty.
    """
    artists = [f"Artist {i}" if i % 7 else f"Artist {i}, Jr." for i in range(p["artists"])]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(("A",) + SONG_COLUMNS)
    cells: dict = {}
    for i in range(p["songs"]):
        mm, dd, yy = rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 15)
        key = f"{mm:02d}{dd:02d}{yy:02d}ktnA{i}"
        row = {
            "Album": f"Album {rng.randrange(p['artists'] * 3)}",
            "Artist": rng.choice(artists),
            "Date": f"20{yy:02d}-{mm:02d}-{dd:02d}",
            "Duration": f"{rng.randint(1, 9)}:{rng.randint(0, 59):02d}",
            "Genre": rng.choice(GENRES),
            "Label": f"Label {rng.randrange(40)}",
            "Plays": rng.randint(1, 100000),
        }
        values = []
        for col in SONG_COLUMNS:
            if rng.random() < p["blank_share"]:
                values.append("")
                continue
            v = row[col]
            values.append(str(v))
            cells[(key, col)] = float(v) if col == "Plays" else v
        writer.writerow((key, *values))
    return out.getvalue(), cells


def _key_range(keys: list, rng: random.Random, share: float) -> tuple:
    width = max(1, int(len(keys) * share))
    start = rng.randrange(len(keys) - width + 1)
    return ("range", keys[start], keys[start + width - 1])


def select_round(rng: random.Random, p: dict, g_rows: list, g_cols: list, s_rows: list) -> list:
    """One round of the read mix: a fixed sequence of op kinds, fresh parameters.

    Each op is ``(name, kind, args)``.  ``X`` and ``Y`` name the results of
    two overlapping wide row ranges, which the element-wise ops then combine.
    The op sequence is the same every round so that the mix is the same in
    every run; only keys, ranges, prefixes, sources and step counts vary.
    """
    small, large = p["set_small"], p["set_large"]
    narrow, wide = p["range_narrow"], p["range_wide"]
    ops = []

    def sub(target, axis, spec, name=None):
        rows, cols = (spec, ("all",)) if axis == "rows" else (("all",), spec)
        ops.append((name or f"subarray.{spec[0]}", "subarray", (target, rows, cols)))

    for axis, keys in (("rows", g_rows), ("cols", g_cols)):
        sub("G", axis, ("set", rng.sample(keys, small)))
        sub("G", axis, ("set", rng.sample(keys, large)))
        sub("G", axis, _key_range(keys, rng, narrow))
        sub("G", axis, _key_range(keys, rng, wide))
        k = rng.choice(keys)
        sub("G", axis, ("prefix", k[: p["prefix_short"]]))
        sub("G", axis, ("prefix", k[: p["prefix_long"]]))

    # X and Y overlap on half their rows, so elmult has work to do.
    width = int(len(g_rows) * wide)
    start = rng.randrange(len(g_rows) - width - width // 2)
    sub("G", "rows", ("range", g_rows[start], g_rows[start + width - 1]), "X")
    sub("G", "rows", ("range", g_rows[start + width // 2], g_rows[start + width + width // 2 - 1]), "Y")

    sub("S", "rows", ("set", rng.sample(s_rows, small)))
    sub("S", "rows", ("set", rng.sample(s_rows, large)))
    sub("S", "rows", _key_range(s_rows, rng, wide))
    k = rng.choice(s_rows)
    sub("S", "rows", ("prefix", k[:2]))
    sub("S", "rows", ("prefix", k[:4]))
    sub("S", "cols", ("set", sorted(rng.sample(SONG_COLUMNS, 2))))
    sub("S", "cols", ("range", "Date", "Genre"))
    sub("S", "cols", ("prefix", "D"))

    ops.append(("perm_select.row", "perm_select", ("G", rng.sample(g_rows, p["perm_keys"]), "row")))
    ops.append(("perm_select.col", "perm_select", ("G", rng.sample(g_cols, p["perm_keys"]), "col")))
    ops.append(("perm_select.row", "perm_select", ("S", rng.sample(s_rows, p["perm_keys"]), "row")))

    for sr in ("arith", "maxplus", "minplus", "maxmin", "lattice"):
        ops.append((f"eladd.{sr}", "eladd", ("X", "Y", sr)))
        ops.append((f"elmult.{sr}", "elmult", ("X", "Y", sr)))

    for steps in (1, 2, 3):
        ops.append((f"bfs.{steps}", "bfs", ("G", rng.sample(g_rows, p["bfs_sources"]), steps)))
    ops.append(("transpose", "transpose", ("X",)))
    ops.append(("symmetrize", "symmetrize", ("X",)))
    ops.append(("degree", "degree", ("G", rng.choice(("row", "col")))))
    return ops


# -- store-churn ---------------------------------------------------------------------


def store_script(rng: random.Random, p: dict) -> list:
    """The churn script: overlapping insert batches, periodic deletes, reads between.

    Ops are ``("insert", table)``, ``("delete", cells)``,
    ``("select", rows_spec, cols_spec)`` and ``("compact",)``.  Cells come
    from a fixed universe of rows x cols, so later batches overwrite earlier
    ones.  Deletes pick cells that are live at that point of the script.
    """
    rows = [f"r{i:05d}" for i in range(p["rows"])]
    cols = [f"c{i:03d}" for i in range(p["cols"])]
    live: dict = {}
    script = []

    def reads():
        for _ in range(p["selects_per_write"]):
            kind = rng.choice(("prefix", "range", "set"))
            if kind == "prefix":
                spec = ("prefix", rng.choice(rows)[: rng.choice((4, 5))])
            elif kind == "range":
                spec = _key_range(rows, rng, p["select_range"])
            else:
                spec = ("set", rng.sample(rows, p["select_set"]))
            if rng.random() < 0.25:
                script.append(("select", ("all",), ("set", rng.sample(cols, 2))))
            else:
                script.append(("select", spec, ("all",)))

    for b in range(1, p["batches"] + 1):
        batch = {}
        while len(batch) < p["batch_records"]:
            cell = (rng.choice(rows), rng.choice(cols))
            batch[cell] = (
                f"text {rng.randrange(1000)}" if rng.random() < p["text_share"]
                else float(rng.randint(1, 999))
            )
        script.append(("insert", batch))
        live.update(batch)
        reads()
        if b % p["delete_every"] == 0:
            cells = rng.sample(sorted(live), p["delete_records"])
            script.append(("delete", cells))
            for cell in cells:
                del live[cell]
            reads()
        if b % p["compact_every"] == 0:
            script.append(("compact",))
            reads()
    return script
