"""The lake-wide passes over cell blocks, for the index build and for
training, give bit for bit what the column-by-column references give:
``embed_column`` for the base embeddings, a ``Counter`` for the document
frequencies, ``build_profile`` and ``value_terms`` for each column's sets
and postings appended set by set."""

import functools

import numpy as np
import pytest

from unionsearch import contrast
from unionsearch import corpus as corpus_module
from unionsearch import encoder as encoder_module
from unionsearch import syntactic
from unionsearch.contrast import OfflinePair, build_offline_pairs
from unionsearch.corpus import Column, Corpus, Table, cell_blocks
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.projection import TrainConfig, init_head, project, widened
from unionsearch.search import IndexConfig, build_engine
from unionsearch.syntactic import (FORMAT, SET_MEASURES, VALUE, build_profile,
                                   build_tfidf, lake_sets, value_terms)

from references import counted_tfidf, postings_from_sets

WORDS = [f"w{i}" for i in range(12)] + ["new", "york", "42", "x7"]
# Token-less cells, empty and whitespace-only ones among them, and cells
# whose letters or digits are not ASCII.
ODD = ["", "   ", "--", "??", "/", "٣٤", "café", "A-b  c"]


def _cell(rng) -> str:
    if rng.random() < 0.25:
        return ODD[rng.integers(len(ODD))]
    n = int(rng.integers(1, 4))
    seps = rng.choice([" ", "-", "/", ", "], size=n)
    return "".join(f"{WORDS[rng.integers(len(WORDS))]}{sep}"
                   for sep in seps).strip()


def _lake(seed: int) -> Corpus:
    """Tables whose columns differ in length, one of them longer than the
    rest put together, some token-less, and two tables whose columns tie
    every TF-IDF weight past the top 20."""
    rng = np.random.default_rng(seed)
    tables = []
    for t in range(9):
        columns = []
        for j in range(int(rng.integers(1, 5))):
            n = 90 if (t, j) == (4, 0) else int(rng.integers(0, 30))
            values = [_cell(rng) for _ in range(n)]
            if rng.random() < 0.15:
                values = ["--", "", "  "][:max(n, 1)]
            columns.append(Column(table_id=f"t{t}", position=j,
                                  name=f"{WORDS[j]} col-{j}", values=values))
        tables.append(Table(table_id=f"t{t}", name=f"t{t}",
                            headers=[c.name for c in columns],
                            columns=columns, source_path=None))
    tied = [f"tie{i:02d}" for i in range(30)]
    for t in ("ties-a", "ties-b"):
        column = Column(table_id=t, position=0, name="??",
                        values=[f"{a} {b}" for a, b in zip(tied, tied[15:])])
        tables.append(Table(table_id=t, name=t, headers=["??"],
                            columns=[column], source_path=None))
    return Corpus(tables=tables)


def _reference(lake: Corpus, encoder: Encoder, head):
    """Keys, tfidf, postings and stored vectors, column by column."""
    columns = sorted(lake.encodable_columns(), key=lambda c: c.column_key)
    tfidf = counted_tfidf(lake)
    profiles = [build_profile(c, tfidf) for c in columns]
    postings = {m: postings_from_sets([p[m] for p in profiles])
                for m in SET_MEASURES}
    wide = widened(head)
    vectors = [project(wide, encoder.embed_column(c.values)).astype(np.float32)
               for c in columns]
    return [c.column_key for c in columns], tfidf, postings, vectors


def _postings_lists(postings):
    return ({tok: rows.tolist() for tok, rows in postings.postings.items()},
            postings.sizes.tolist())


def _vector_file(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "vectors.txt"
    path.write_text("".join(
        f"{w} {' '.join(f'{x:.6f}' for x in rng.standard_normal(9))}\n"
        for w in WORDS[::2]), encoding="utf-8")
    return EncoderConfig(backend="vector_file", vector_file_path=str(path))


@pytest.fixture
def small_caps(monkeypatch):
    """Blocks of a few cells, so a longer column is a block alone, and
    memos that evict almost at once."""
    monkeypatch.setattr(corpus_module, "BLOCK_CELLS", 40)
    monkeypatch.setattr(encoder_module, "CELL_CACHE_CAP", 3)
    tokens = functools.lru_cache(maxsize=4)(
        corpus_module.cell_tokens.__wrapped__)
    for module in (corpus_module, encoder_module, syntactic):
        monkeypatch.setattr(module, "cell_tokens", tokens)
    monkeypatch.setattr(syntactic, "format_pattern", functools.lru_cache(
        maxsize=4)(syntactic.format_pattern.__wrapped__))


CONFIGS = {
    "hashing": lambda tmp_path: EncoderConfig(dim=16, hash_seed=5),
    "single-token": lambda tmp_path: EncoderConfig(
        dim=16, hash_seed=5, cell_as_single_token=True),
    "vector-file": _vector_file,
}


@pytest.mark.parametrize("caps", ["default", "small"])
@pytest.mark.parametrize("backend", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_build_engine_equals_the_column_by_column_build(
        request, tmp_path, seed, backend, caps):
    if caps == "small":
        request.getfixturevalue("small_caps")
    lake = _lake(seed)
    cfg = CONFIGS[backend](tmp_path)
    dim = Encoder(cfg).dim
    head = init_head(dim, 12, 8, seed=seed)
    engine = build_engine(lake, Encoder(cfg), head, IndexConfig(seed=3))
    keys, tfidf, postings, vectors = _reference(lake, Encoder(cfg), head)
    # Some column is not encodable, so the passes had one to leave out.
    assert len(keys) < lake.column_count
    assert engine.keys == tuple(keys)
    assert engine.tfidf.df == tfidf.df
    assert engine.tfidf.n_columns == tfidf.n_columns
    for measure in SET_MEASURES:
        assert _postings_lists(engine.postings[measure]) \
            == _postings_lists(postings[measure])
        assert all(rows.dtype == np.int64
                   for rows in engine.postings[measure].postings.values())
    assert engine.semantic_index.vectors.tobytes() \
        == np.stack(vectors).tobytes()


def test_the_lake_holds_the_cases_the_passes_must_keep(small_caps):
    """Empty cells have no format, whitespace-only ones do; the tied
    columns keep their 20 lexicographically first terms; some column is a
    block alone; and the columns come in more than one length."""
    lake = _lake(1)
    engine = build_engine(lake, Encoder(EncoderConfig(dim=8, hash_seed=1)),
                          init_head(8, 8, 8, seed=1))
    blank = Column(table_id="b", position=0, name="b", values=["", "  ", "x"])
    assert build_profile(blank, engine.tfidf, [FORMAT])[FORMAT] == {"_", "a"}
    assert "_" in engine.postings[FORMAT].postings
    tied = engine.keys.index(("ties-a", 0))
    terms = {tok for tok, rows in engine.postings[VALUE].postings.items()
             if tied in rows.tolist()}
    assert terms == {f"tie{i:02d}" for i in range(20)}
    blocks = list(cell_blocks(sorted(lake.columns(),
                                     key=lambda c: c.column_key)))
    assert any(len(b.columns) == 1 and b.slots.size > 40 for b in blocks)
    assert len({len(c.values) for c in lake.columns()}) > 5


@pytest.mark.parametrize("backend", sorted(CONFIGS))
def test_embed_block_equals_embed_column(tmp_path, small_caps, backend):
    lake = _lake(3)
    cfg = CONFIGS[backend](tmp_path)
    columns = [c for c in lake.columns() if c.is_encodable()]
    blocked = Encoder(cfg)
    got = np.concatenate([blocked.embed_block(b) for b in cell_blocks(columns)])
    fresh = Encoder(cfg)
    want = np.stack([fresh.embed_column(c.values) for c in columns])
    assert got.tobytes() == want.tobytes()


def test_embed_block_names_a_column_without_tokens():
    columns = [Column("t", 0, "a", ["x"]), Column("t", 1, "b", ["--", ""])]
    (block,) = cell_blocks(columns)
    with pytest.raises(encoder_module.EmptyColumnError, match=r"\('t', 1\)"):
        Encoder(EncoderConfig(dim=8)).embed_block(block)


def test_lake_sets_count_what_build_tfidf_counts(small_caps):
    lake = _lake(4)
    tfidf, columns, _ = lake_sets(lake.columns())
    want = counted_tfidf(lake)
    for got in (tfidf, build_tfidf(lake)):
        assert got.df == want.df and got.n_columns == want.n_columns
        assert list(got.df) == list(want.df)
    assert columns == lake.encodable_columns()


@pytest.mark.parametrize("caps", ["default", "small"])
@pytest.mark.parametrize("backend", sorted(CONFIGS))
def test_online_batches_equal_embed_column(request, tmp_path, monkeypatch,
                                           backend, caps):
    if caps == "small":
        request.getfixturevalue("small_caps")
    tables = _lake(6).tables
    cfg = CONFIGS[backend](tmp_path)
    train_cfg = TrainConfig(batch_size=4, sample_size=12, seed=9)
    got = list(contrast._online_batches(Encoder(cfg), tables, train_cfg, 1))
    monkeypatch.setattr(contrast, "_embed", lambda encoder, columns: np.stack(
        [encoder.embed_column(c.values) for c in columns]))
    want = list(contrast._online_batches(Encoder(cfg), tables, train_cfg, 1))
    assert len(want) > 1
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def _offline_reference(lake: Corpus, floor: float) -> list[OfflinePair]:
    """Each encodable column's first best value-term match among the others,
    in key order, as postings appended set by set count it."""
    columns = sorted(lake.encodable_columns(), key=lambda c: c.column_key)
    tfidf = counted_tfidf(lake)
    terms = [value_terms(c, tfidf) for c in columns]
    postings = postings_from_sets(terms)
    pairs = {}
    for row, column in enumerate(columns):
        rows, scores = postings.match([terms[row]])
        scores[rows == row] = -1.0
        if len(rows) and scores.max() >= floor:
            other = columns[int(rows[np.argmax(scores)])].column_key
            pairs.setdefault(tuple(sorted((column.column_key, other))),
                             float(scores.max()))
    return sorted((OfflinePair(a, b, score)
                   for (a, b), score in pairs.items()),
                  key=lambda p: (-p.match_score, p.column_key_a,
                                 p.column_key_b))


@pytest.mark.parametrize("caps", ["default", "small"])
@pytest.mark.parametrize("floor", [0.5, 0.2])
@pytest.mark.parametrize("seed", [1, 2])
def test_offline_pairs_equal_the_column_by_column_reference(
        request, seed, floor, caps):
    if caps == "small":
        request.getfixturevalue("small_caps")
    lake = _lake(seed)
    got = build_offline_pairs(lake, floor=floor)
    assert got == _offline_reference(lake, floor)
    assert OfflinePair(("ties-a", 0), ("ties-b", 0), 1.0) in got


def test_cell_blocks_slot_every_cell_and_bound_their_size(monkeypatch):
    monkeypatch.setattr(corpus_module, "BLOCK_CELLS", 12)
    lake = _lake(5)
    columns = lake.columns()
    blocks = list(cell_blocks(columns))
    assert [c for b in blocks for c in b.columns] == columns
    for block in blocks:
        assert block.slots.shape[1] == len(block.columns)
        assert block.slots.size <= 12 or len(block.columns) == 1
        assert len(set(block.values)) == len(block.values)
        for i, column in enumerate(block.columns):
            cells = block.slots[:, i]
            n = len(column.values)
            assert [block.values[s] for s in cells[:n]] == column.values
            assert (cells[n:] == block.padding).all()
        found, slots, counts = block.column_slots()
        for i, column in enumerate(block.columns):
            mine = found == i
            assert {block.values[s]: int(c) for s, c
                    in zip(slots[mine], counts[mine])} \
                == {v: column.values.count(v) for v in column.values}
