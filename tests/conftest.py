import numpy as np
import pytest

from unionsearch.corpus import Column, Corpus, Table


def make_table(table_id: str, cols: dict[str, list[str]]) -> Table:
    """Build an in-memory table from {column name: values}."""
    names = list(cols)
    columns = [Column(table_id=table_id, position=i, name=n, values=list(cols[n]))
               for i, n in enumerate(names)]
    return Table(table_id=table_id, name=table_id, headers=names,
                 columns=columns, source_path=None)


def make_corpus(tables: dict[str, dict[str, list[str]]]) -> Corpus:
    return Corpus(tables=[make_table(tid, cols) for tid, cols in tables.items()])


@pytest.fixture
def toy_corpus() -> Corpus:
    return make_corpus({
        "papers": {
            "title": ["deep learning survey", "graph neural networks",
                      "attention is all", "convex optimization"],
            "venue": ["Very Large Data Bases", "neural info processing",
                      "machine learning", "operations research"],
            "year": ["2007", "2014", "2017", "2004"],
        },
        "articles": {
            "name": ["statistical learning", "random forests",
                     "boosting methods", "kernel machines"],
            "published": ["1999", "2001", "2003", "1998"],
            "journal": ["annals statistics", "machine learning",
                        "neural computation", "data mining"],
        },
        "cities": {
            "city": ["lisbon", "porto", "madrid", "seville"],
            "country": ["portugal", "portugal", "spain", "spain"],
            "population": ["505", "237", "3223", "688"],
        },
    })


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rotate_from(base: np.ndarray, other: np.ndarray, cos_target: float) -> np.ndarray:
    """Unit vector at exactly the requested cosine to `base`, in span(base, other)."""
    b = unit(base)
    o = np.asarray(other, dtype=np.float64)
    o = o - (o @ b) * b
    o = o / np.linalg.norm(o)
    s = np.sqrt(max(0.0, 1.0 - cos_target * cos_target))
    return cos_target * b + s * o


def forced(frozen, name: str, value) -> None:
    """Write a field of a frozen config or head past its constructor's
    checks: the one way a test makes a value the library refuses to make,
    such as a bad setting for a save to store."""
    object.__setattr__(frozen, name, value)


# Document-frequency edits no save writes, by case: the field, the edit as
# ``references.field_edits`` labels it, and the load's message.
TFIDF_EDITS = {
    "one-df-zero": ("df counts", "bound: first zero", "not counts"),
    "every-df-zero": ("df counts", "bound: every zero", "not counts"),
    "df-above-columns": ("df counts", "bound: last past", "not counts"),
    "tokens-out-of-order": ("df tokens", "swap strings",
                            "df tokens not strictly increasing"),
    "duplicate-token": ("df tokens", "repeat a string",
                        "df tokens not strictly increasing"),
    "count-without-token": ("df counts", "extend values",
                            "document frequencies for"),
}
