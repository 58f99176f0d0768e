import collections
import csv

import numpy as np
import pytest

from unionsearch import corpus as corpus_module
from unionsearch.corpus import (
    Column,
    Corpus,
    load_csv,
    load_manifest,
    sample_column,
    sample_columns,
    tokenize,
    write_manifest,
    write_table_csv,
)
from unionsearch.errors import ConfigError, EmptyColumnError, InputError

from conftest import make_corpus, make_table
from references import sampled_values


# ---------------------------------------------------------------- tokenize

def test_tokenize_phrase():
    assert tokenize("Very Large Data Bases") == ["very", "large", "data", "bases"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_split():
    assert tokenize("J Cheng, Y Ke") == ["j", "cheng", "y", "ke"]


def test_tokenize_digits_kept():
    assert tokenize("VLDB-2007 proc.") == ["vldb", "2007", "proc"]


def test_tokenize_only_punctuation():
    assert tokenize("--- ,,, !!") == []


# ---------------------------------------------------------------- csv ingest

def test_load_csv_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    t = load_csv(p)
    assert t.table_id == "t"
    assert t.headers == ["a", "b"]
    assert t.n_columns == 2 and t.n_rows == 2
    assert t.columns[0].values == ["1", "3"]
    assert t.columns[1].values == ["2", "4"]


def test_load_csv_explicit_table_id(tmp_path):
    p = tmp_path / "file.csv"
    p.write_text("x\n1\n", encoding="utf-8")
    t = load_csv(p, table_id="custom")
    assert t.table_id == "custom"


def test_load_csv_ragged_rows_warned(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b,c\n1,2\n1,2,3,4\n5,6,7\n", encoding="utf-8")
    t = load_csv(p)
    # short row padded, long row truncated
    assert t.n_rows == 3
    assert t.columns[2].values == ["", "3", "7"]
    assert t.columns[0].values == ["1", "1", "5"]


def test_load_csv_empty_file_rejected(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(p)


def test_load_csv_header_only_rejected(tmp_path):
    p = tmp_path / "ho.csv"
    p.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_crlf(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"a,b\r\n1,2\r\n")
    t = load_csv(p)
    assert t.columns[1].values == ["2"]


def test_load_csv_undecodable_bytes_replaced(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"a\n\xff\xfe\n")
    t = load_csv(p)  # must not crash; bad bytes replaced
    assert t.n_rows == 1


def test_roundtrip_write_then_load(tmp_path):
    t = make_table("orig", {"a": ["1", "", "x y"], "b": ["p,q", "r", ""]})
    p = tmp_path / "orig.csv"
    write_table_csv(p, t)
    back = load_csv(p)
    assert back.headers == t.headers
    assert [c.values for c in back.columns] == [c.values for c in t.columns]


# ---------------------------------------------------------------- corpus / manifest

def test_corpus_lookup_and_counts(toy_corpus):
    assert toy_corpus.column_count == 9
    col = toy_corpus.column(("papers", 2))
    assert col.name == "year"
    with pytest.raises(InputError):
        toy_corpus.table("missing")
    with pytest.raises(InputError):
        toy_corpus.column(("papers", 99))


def test_corpus_duplicate_table_id_rejected():
    t1 = make_table("same", {"a": ["1"]})
    t2 = make_table("same", {"b": ["2"]})
    with pytest.raises(InputError):
        Corpus(tables=[t1, t2])


def test_every_column_reachable_by_key(toy_corpus):
    for col in toy_corpus.columns():
        assert toy_corpus.column(col.column_key) is col


def test_encodable_columns_filter():
    c = make_corpus({
        "t": {"ok": ["hello", ""], "blank": ["", ""], "punct": ["---", "!!"]},
    })
    keys = [c.column_key for c in c.encodable_columns()]
    assert keys == [("t", 0)]


def test_manifest_roundtrip(tmp_path):
    for tid, rows in [("one", "a,b\n1,2\n"), ("two", "c\nx\ny\n")]:
        (tmp_path / f"{tid}.csv").write_text(rows, encoding="utf-8")
    man = tmp_path / "manifest.tsv"
    write_manifest(man, [("one", "one.csv"), ("two", "two.csv")])
    corpus = load_manifest(man)
    assert [t.table_id for t in corpus.tables] == ["one", "two"]
    assert corpus.table("two").n_rows == 2


def test_manifest_missing_file(tmp_path):
    man = tmp_path / "manifest.tsv"
    write_manifest(man, [("ghost", "ghost.csv")])
    with pytest.raises(InputError):
        load_manifest(man)


def test_manifest_missing_manifest(tmp_path):
    with pytest.raises(InputError):
        load_manifest(tmp_path / "absent.tsv")


def test_manifest_relative_paths_resolve_against_manifest_dir(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    (sub / "t.csv").write_text("a\n1\n", encoding="utf-8")
    man = sub / "m.tsv"
    write_manifest(man, [("t", "t.csv")])
    corpus = load_manifest(man)  # loaded from cwd elsewhere; path is manifest-relative
    assert corpus.table("t").n_rows == 1


# ---------------------------------------------------------------- shared cells

def _unpooled_columns(path) -> list[list[str]]:
    """A plain reading of a CSV file's cells, column by column, as load_csv
    documents it: stripped, ragged rows padded or truncated, bad bytes
    replaced."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        rows = [row for row in csv.reader(fh) if row]
    width = len(rows[0])
    cells = [[c.strip() for c in row][:width] + [""] * (width - len(row))
             for row in rows[1:]]
    return [[row[j] for row in cells] for j in range(width)]


def _write_lake(tmp_path, tables: dict[str, bytes]):
    for tid, data in tables.items():
        (tmp_path / f"{tid}.csv").write_bytes(data)
    man = tmp_path / "manifest.tsv"
    write_manifest(man, [(tid, f"{tid}.csv") for tid in tables])
    return man


# Multi-character values: CPython shares one-character strings anyway.
_SHARED_LAKE = {
    "one": b"city,home\n Oslo ,Bergen\nBergen,Oslo\nOslo\n\xff\xfeab,x,extra\n",
    "two": b"town\nBergen\nOslo  \n\xff\xfeab\n\n",
}


def test_manifest_cells_with_equal_text_are_one_object(tmp_path):
    lake = load_manifest(_write_lake(tmp_path, _SHARED_LAKE))
    cells = [v for col in lake.columns() for v in col.values]
    by_text = collections.defaultdict(set)
    for v in cells:
        by_text[v].add(id(v))
    assert {text for text, ids in by_text.items() if len(ids) > 1} == set()
    one, two = lake.table("one").columns, lake.table("two").columns
    assert one[0].values[0] is one[1].values[1] is two[0].values[1]   # Oslo
    assert one[0].values[3] is two[0].values[2]   # replaced bytes


def test_pooled_cells_equal_a_plain_reading(tmp_path):
    man = _write_lake(tmp_path, _SHARED_LAKE)
    lake = load_manifest(man)
    for tid in _SHARED_LAKE:
        assert [c.values for c in lake.table(tid).columns] \
            == _unpooled_columns(tmp_path / f"{tid}.csv")
    assert [c.values for c in lake.table("one").columns] == [
        ["Oslo", "Bergen", "Oslo", "\ufffd\ufffdab"],
        ["Bergen", "Oslo", "", "x"],
    ]


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_a_lake_past_the_pool_bound_loads_the_same_values(tmp_path, monkeypatch,
                                                          cap):
    rows = "\n".join(f"v{i},w{i % 4},v{i}" for i in range(12))
    man = _write_lake(tmp_path, {"a": f"x,y,z\n{rows}\n".encode(),
                                 "b": f"p\n{rows}\n".encode(), **_SHARED_LAKE})
    monkeypatch.setattr(corpus_module, "CELL_POOL_CAP", cap)
    lake = load_manifest(man)
    for table in lake.tables:
        assert [c.values for c in table.columns] \
            == _unpooled_columns(tmp_path / f"{table.table_id}.csv")
    if cap == 0:   # nothing pooled: equal cells of two columns stay apart
        x, _, z = lake.table("a").columns
        assert all(a is not b for a, b in zip(x.values, z.values))


def test_load_csv_shares_equal_cells_within_its_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\nalpha,beta\nbeta, alpha\nalpha,gamma\n",
                 encoding="utf-8")
    a, b = load_csv(p).columns
    assert a.values == ["alpha", "beta", "alpha"]
    assert b.values == ["beta", "alpha", "gamma"]
    assert a.values[0] is a.values[2] is b.values[1]
    assert a.values[1] is b.values[0]
    # Each call pools on its own: no process-wide table, unlike sys.intern.
    assert load_csv(p).columns[0].values[0] is not a.values[0]


# ---------------------------------------------------------------- sampling

def _col(values: list[str]) -> Column:
    return Column(table_id="t", position=0, name="c", values=values)


def test_sample_deterministic():
    col = _col([f"v{i}" for i in range(50)])
    a = sample_column(col, 10, seed=7)
    b = sample_column(col, 10, seed=7)
    assert a.values == b.values
    assert len(a.values) == 10
    assert sample_column(col, 10, seed=8).values != a.values


def test_sample_draws_as_its_reference():
    """Seeded in a batch, a sample still draws what its own
    ``default_rng(seed)`` draws."""
    columns = [_col([f"v{i}" for i in range(n)] + ["", "--"]) for n in
               (1, 2, 9, 50, 333)]
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 77, 123456789]
    for column in columns:
        for seed in seeds:
            assert sample_column(column, 25, seed).values \
                == sampled_values(column, 25, seed)
    batch = sample_columns(columns * len(seeds), 25,
                           [seed for seed in seeds for _ in columns])
    assert [c.values for c in batch] == [sampled_values(c, 25, seed)
                                         for seed in seeds for c in columns]


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
def test_sample_refuses_a_seed_outside_u64(seed):
    with pytest.raises(ConfigError):
        sample_column(_col(["a"]), 4, seed)


def test_sample_draws_from_nonempty_values():
    col = _col(["x", "", "y", "", "z"])
    s = sample_column(col, 30, seed=1)
    assert set(s.values) <= {"x", "y", "z"}


def test_sample_draws_from_cells_that_yield_a_token():
    col = Column(table_id="t", position=3, name="c",
                 values=["x", "--", "", "y", "??", "z"])
    s = sample_column(col, 30, seed=1)
    assert set(s.values) == {"x", "y", "z"}
    assert (s.table_id, s.position, s.name) == ("t", 3, "c")
    with pytest.raises(EmptyColumnError):
        sample_column(_col(["--", "", "??"]), 5, seed=0)


def test_sample_single_value_column():
    s = sample_column(_col(["a"]), 4, seed=0)
    assert s.values == ["a", "a", "a", "a"]


def test_sample_two_value_frequency():
    s = sample_column(_col(["a", "b"]), 1000, seed=3)
    freq = collections.Counter(s.values)["a"] / 1000
    assert 0.45 <= freq <= 0.55


def test_sample_depends_only_on_values_and_seed():
    # same cell values under different identities must sample identically
    c1 = Column(table_id="t1", position=0, name="alpha", values=["p", "q", "r"])
    c2 = Column(table_id="zz", position=5, name="other", values=["p", "q", "r"])
    assert sample_column(c1, 12, 99).values == sample_column(c2, 12, 99).values


def test_sample_empty_column_rejected():
    with pytest.raises(EmptyColumnError):
        sample_column(_col(["", ""]), 5, seed=0)


def test_sample_size_validation():
    with pytest.raises(InputError):
        sample_column(_col(["a"]), 0, seed=0)
