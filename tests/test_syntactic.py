from collections import Counter

import numpy as np
import pytest

from unionsearch.corpus import Column, tokenize
from unionsearch.syntactic import (
    FORMAT,
    NAME,
    VALUE,
    TOP_TERMS,
    build_profile,
    build_tfidf,
    format_measure,
    format_pattern,
    format_patterns,
    jaccard,
    name_measure,
    name_qgrams,
    value_measure,
    value_terms,
)

from conftest import make_corpus
from references import counted_tfidf, postings_from_sets


def _col(values, name="c", table_id="t", position=0) -> Column:
    return Column(table_id=table_id, position=position, name=name, values=values)


# ---------------------------------------------------------------- jaccard / qgrams

def test_jaccard_basic():
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard({"a"}, {"a"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 0.0  # both empty: defined as zero


def test_set_postings_match_jaccard_bit_for_bit():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(40)]

    def random_set(pool: list[str], most: int) -> frozenset[str]:
        n = int(rng.integers(0, most + 1))
        return frozenset(rng.choice(pool, size=n, replace=False).tolist())

    # Rows draw from the first 30 tokens only, so queries also hold tokens
    # that no posting list has; both sides include empty sets.
    rows = [random_set(vocab[:30], 12) for _ in range(60)] + [frozenset()]
    postings = postings_from_sets(rows)
    np.testing.assert_array_equal(postings.sizes, [len(r) for r in rows])
    queries = [random_set(vocab, 15) for _ in range(80)] + [frozenset(), rows[0]]
    n = len(rows)
    # Each query alone, all in one stack, and a stack that repeats one.
    for stack in [*([q] for q in queries), queries, [rows[0], queries[1],
                                                     rows[0]]]:
        ids, scores = postings.match(stack)
        assert ids.dtype == np.int64 and scores.dtype == np.float64
        assert ids.tolist() == [j * n + i for j, q in enumerate(stack)
                                for i, r in enumerate(rows) if q & r]
        dense = np.zeros(len(stack) * n)
        dense[ids] = scores
        want = np.array([jaccard(q, r) for q in stack for r in rows])
        # Equal as float64 bits, not just close; a row sharing no token
        # scores +0.0.
        assert np.array_equal(dense.view(np.int64), want.view(np.int64))


def test_set_postings_of_no_sets():
    for postings, stack in [(postings_from_sets([]), [frozenset({"a"})]),
                            (postings_from_sets([frozenset({"a"})]), [])]:
        ids, scores = postings.match(stack)
        assert ids.shape == scores.shape == (0,)


def test_name_qgrams_short_word():
    assert name_qgrams("year") == {"yea", "ear"}


def test_name_qgrams_shorter_than_q():
    assert name_qgrams("ab") == {"ab"}
    assert name_qgrams("") == frozenset()


def test_name_qgrams_normalizes_case_and_punctuation():
    assert name_qgrams("Employee ID") == name_qgrams("employeeid")


def test_name_similarity_example():
    a, b = name_qgrams("year"), name_qgrams("years")
    # {yea, ear} vs {yea, ear, ars}
    assert jaccard(a, b) == pytest.approx(2 / 3)


# ---------------------------------------------------------------- tf-idf value terms

def test_tfidf_rare_tokens_outrank_common():
    # Twenty tokens only t1 holds, one of them twice, and a token every
    # column holds that sorts before them all.
    rare = ["quartz", *(f"topaz{i:02d}" for i in range(19))]
    corpus = make_corpus({
        "t1": {"a": ["quartz", *rare, "common"]},
        "t2": {"b": ["common", "common"]},
        "t3": {"c": ["common", "other"]},
    })
    tfidf = build_tfidf(corpus)
    terms = value_terms(corpus.column(("t1", 0)), tfidf)
    assert TOP_TERMS == 20
    assert terms == set(rare)


def test_tfidf_df_counts_distinct_columns():
    corpus = make_corpus({
        "t1": {"a": ["x", "x", "x"], "b": ["x", "y"]},
        "t2": {"c": ["z"]},
    })
    tfidf = build_tfidf(corpus)
    assert tfidf.df["x"] == 2  # repeated within a column counts once
    assert tfidf.df["y"] == 1
    assert tfidf.n_columns == 3


def test_value_terms_deterministic_tie_break():
    # 25 tokens of equal score, in no sorted order.
    tied = [f"t{i:02d}" for i in (7, 24, 3, 19, 0, 21, 12, 20, 5, 16, 9, 22,
                                  1, 14, 18, 23, 6, 11, 2, 17, 8, 13, 4, 15,
                                  10)]
    corpus = make_corpus({
        "t1": {"a": tied},
        "t2": {"b": ["qq"]},
    })
    tfidf = build_tfidf(corpus)
    t1 = value_terms(corpus.column(("t1", 0)), tfidf)
    t2 = value_terms(corpus.column(("t1", 0)), tfidf)
    # Equal scores: lexicographic order decides.
    assert t1 == t2 == {f"t{i:02d}" for i in range(20)}


def test_value_terms_rank_like_a_per_token_idf():
    """The model's df -> idf table gives each token the weight and each
    column the ranking of an idf worked out token by token."""
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(60)]
    lake = make_corpus({f"t{t}": {"a": list(rng.choice(
        words[:40], size=int(rng.integers(1, 30))))} for t in range(40)})
    tfidf = build_tfidf(lake)
    assert tfidf.idf.keys() == {1, *tfidf.df.values()}
    for size in (3, 25, 80):
        # Words 40 and up are unseen, so they take df 1.
        cells = [" ".join(rng.choice(words, size=2)) for _ in range(size)]
        column = Column(table_id="q", position=0, name="q", values=cells)
        tf = Counter(t for cell in cells for t in tokenize(cell))
        n = tfidf.n_columns
        ranked = sorted(tf, key=lambda tok: (
            -(tf[tok] * float(np.log(1.0 + n / tfidf.df.get(tok, 1)))), tok))
        assert value_terms(column, tfidf) == frozenset(ranked[:TOP_TERMS])


def test_value_terms_corpus_order_independent():
    spec = {
        "t1": {"a": ["ruby", "opal", "jade"]},
        "t2": {"b": ["ruby", "onyx"]},
        "t3": {"c": ["jade", "opal"]},
    }
    fwd = make_corpus(spec)
    rev = make_corpus(dict(reversed(list(spec.items()))))
    tf_fwd, tf_rev = build_tfidf(fwd), build_tfidf(rev)
    col = fwd.column(("t1", 0))
    assert value_terms(col, tf_fwd) == value_terms(col, tf_rev)


def test_identical_value_sets_score_one():
    corpus = make_corpus({
        "t1": {"a": ["red", "green", "blue"]},
        "t2": {"b": ["green", "blue", "red"]},
    })
    tfidf = build_tfidf(corpus)
    pa = build_profile(corpus.column(("t1", 0)), tfidf)
    pb = build_profile(corpus.column(("t2", 0)), tfidf)
    assert value_measure(pa, pb) == 1.0


def test_disjoint_value_sets_score_zero():
    corpus = make_corpus({
        "t1": {"a": ["red", "green"]},
        "t2": {"b": ["iron", "zinc"]},
    })
    tfidf = build_tfidf(corpus)
    pa = build_profile(corpus.column(("t1", 0)), tfidf)
    pb = build_profile(corpus.column(("t2", 0)), tfidf)
    assert value_measure(pa, pb) == 0.0


# ---------------------------------------------------------------- format patterns

def test_format_pattern_digits():
    assert format_pattern("2007") == "9"


def test_format_pattern_name_with_space():
    assert format_pattern("J Cheng") == "a_a"


def test_format_pattern_url_keeps_punctuation_runs():
    assert format_pattern("https://x.y") == "a://a.a"


def test_format_pattern_mixed():
    assert format_pattern("AB-123") == "a-9"
    assert format_pattern("12 Main St.") == "9_a_a."
    assert format_pattern("") == ""


def test_format_pattern_idempotent_on_own_alphabet():
    for raw in ("2007", "J Cheng", "https://x.y", "AB-123", "12 Main St."):
        pat = format_pattern(raw)
        assert format_pattern(pat) == pat


def test_format_patterns_of_column_dedupes():
    col = _col(["2007", "2014", "1999"])
    assert format_patterns(col) == {"9"}


def test_format_measure_distinguishes_layouts():
    corpus = make_corpus({
        "t1": {"year": ["2007", "2014"]},
        "t2": {"when": ["March 2007", "May 2014"]},
        "t3": {"year2": ["1999", "2001"]},
    })
    tfidf = build_tfidf(corpus)
    years = build_profile(corpus.column(("t1", 0)), tfidf)
    months = build_profile(corpus.column(("t2", 0)), tfidf)
    years2 = build_profile(corpus.column(("t3", 0)), tfidf)
    assert format_measure(years, months) == 0.0  # {9} vs {a_9}
    assert format_measure(years, years2) == 1.0


# ---------------------------------------------------------------- profiles / properties

def test_profile_fields():
    corpus = make_corpus({
        "t1": {"year": ["2007", "2014"]},
        "t2": {"x": ["1"]},
    })
    tfidf = build_tfidf(corpus)
    col = corpus.column(("t1", 0))
    p = build_profile(col, tfidf)
    assert p == {NAME: {"yea", "ear"}, VALUE: {"2007", "2014"},
                 FORMAT: {"9"}}
    # Only the named measures' sets are built, in the order asked.
    assert list(build_profile(col, tfidf, (FORMAT, NAME)).items()) == \
        [(FORMAT, p[FORMAT]), (NAME, p[NAME])]
    assert build_profile(col, tfidf, ()) == {}


def test_measures_symmetric_bounded():
    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(30)]
    spec = {}
    for t in range(6):
        vals = [vocab[int(rng.integers(0, 30))] for _ in range(8)]
        spec[f"t{t}"] = {f"name{t}": vals}
    corpus = make_corpus(spec)
    tfidf = build_tfidf(corpus)
    profs = [build_profile(c, tfidf) for c in corpus.columns()]
    for f in (name_measure, value_measure, format_measure):
        for a in profs:
            for b in profs:
                s = f(a, b)
                assert 0.0 <= s <= 1.0
                assert s == f(b, a)
            assert f(a, a) == 1.0


# ---------------------------------------------------------------- per-cell memos

# Unicode digits and letters: isdigit/isalpha are Unicode-wide, the
# tokenizer is ASCII-only.
UNICODE_CELLS = ["٣٤", "Ⅻ", "é-1", "café 12", "CAFÉ", "x²", "٣٤", "ǅ ab",
                 "12-34", "é-1", "", "--"]


def _reference_pattern(value: str) -> str:
    out, prev = [], None
    for ch in value:
        cls = ("9" if ch.isdigit() else "a" if ch.isalpha()
               else "_" if ch.isspace() else None)
        if cls is None:
            out.append(ch)
        elif cls != prev:
            out.append(cls)
        prev = cls
    return "".join(out)


def _reference_value_terms(column, df, n_columns):
    tf = Counter(t for v in column.non_empty_values() for t in tokenize(v))
    weight = {t: tf[t] * float(np.log(1.0 + n_columns / df.get(t, 1)))
              for t in tf}
    return frozenset(sorted(tf, key=lambda t: (-weight[t], t))[:20])


def test_format_pattern_on_unicode_matches_reference():
    assert format_pattern("٣٤") == "9"
    assert format_pattern("Ⅻ") == "Ⅻ"        # a number, but neither class
    assert format_pattern("é-1") == "a-9"
    for _ in range(2):                        # cold, then from the memo
        for value in UNICODE_CELLS:
            assert format_pattern(value) == _reference_pattern(value)


def test_value_terms_and_tfidf_on_unicode_match_reference():
    corpus = make_corpus({
        "a": {"x": UNICODE_CELLS, "y": UNICODE_CELLS[::-1]},
        "b": {"z": ["café 12", "12", "ab", "ab", "٣٤ ab"]},
        # More distinct tokens than the cap, at several weights.
        "c": {"w": [*UNICODE_CELLS, "12", "ab", "ab",
                    *(f"k{i % 7} m{i}" for i in range(18))]},
    })
    want = counted_tfidf(corpus)
    wide = corpus.column(("c", 0))
    assert len({t for v in wide.values for t in tokenize(v)}) \
        > TOP_TERMS
    for _ in range(2):
        tfidf = build_tfidf(corpus)
        assert tfidf.df == want.df and tfidf.n_columns == want.n_columns
        assert list(tfidf.df) == list(want.df)     # same insertion order too
        for col in corpus.columns():
            assert value_terms(col, tfidf) == _reference_value_terms(
                col, want.df, want.n_columns)
