"""Synthetic benchmarks, retrieval metrics, and the exhaustive oracle.

The generator builds topic-structured base tables and derives each query /
candidate table from a base by projecting a random subset of its columns
(in permuted order) and selecting a random subset of its rows. Two derived
tables count as unionable ground truth when they come from the same base
and kept at least one base column in common, so the truth is computed per
base: a table's answers are sought among its own base's tables only.

Every cell is a single token drawn from a mixture of pools: an attribute
pool shared by same-position columns of a topic, a topic-wide pool, a
base-specific pool, and a corpus-wide filler pool. The mixture controls how
separable topics are and how much same-topic tables confuse each other.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Column, Corpus, Table
from .errors import ConfigError, InputError
from .search import QueryResult, SearchConfig, SearchEngine, top_k_search
from .seeding import rng_for

GroundTruth = dict[str, set[str]]

ROW_FLOOR = 4   # derived tables never select fewer rows than this
ATTR_SLOTS = 6  # attribute pools per topic, shared by positions modulo this
DERIVED_ROW_RANGE = (0.5, 0.9)   # share of base rows a derived table keeps


def avg_answer_size(truth: GroundTruth) -> float:
    """Mean answer-set size over queries that have at least one answer."""
    sizes = [len(v) for v in truth.values() if v]
    if not sizes:
        raise InputError("ground truth has no queries with answers")
    return float(np.mean(sizes))


@dataclass(frozen=True)
class BenchmarkSpec:
    n_bases: int = 20
    derivations_per_base: int = 20
    n_topics: int = 5
    base_columns: tuple[int, int] = (4, 8)        # inclusive column-count range
    base_rows: int = 60
    attr_vocab: int = 30
    topic_vocab: int = 30
    base_vocab: int = 12
    filler_vocab: int = 50
    p_attr: float = 0.30
    p_topic: float = 0.30
    p_base: float = 0.20                          # remainder is filler
    seed: int = 0
    include_bases: bool = False

    def __post_init__(self) -> None:
        if self.n_bases < 1 or self.derivations_per_base < 1:
            raise ConfigError("need at least one base and one derivation")
        if self.n_topics < 1:
            raise ConfigError("need at least one topic")
        lo, hi = self.base_columns
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad base column range {self.base_columns}")
        if self.base_rows < ROW_FLOOR:
            raise ConfigError(
                f"base tables need >= {ROW_FLOOR} rows, got {self.base_rows}")
        total = self.p_attr + self.p_topic + self.p_base
        if not (0.0 <= total <= 1.0):
            raise ConfigError("mixture probabilities must sum to at most 1")


def _pool(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(size)]


def _make_base(spec: BenchmarkSpec, base_idx: int) -> Table:
    topic = base_idx % spec.n_topics
    rng = rng_for(spec.seed, "base", base_idx)
    lo, hi = spec.base_columns
    n_cols = int(rng.integers(lo, hi + 1))
    slug = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=6))
    filler = _pool("fill", spec.filler_vocab)
    topic_pool = _pool(f"top{topic}w", spec.topic_vocab)
    base_pool = _pool(f"b{base_idx}w", spec.base_vocab)

    headers = [f"{slug}{j}" for j in range(n_cols)]
    columns = []
    for j in range(n_cols):
        attr_pool = _pool(f"t{topic}a{j % ATTR_SLOTS}w", spec.attr_vocab)
        draws = rng.random(spec.base_rows)
        values = []
        for d in draws:
            if d < spec.p_attr:
                pool = attr_pool
            elif d < spec.p_attr + spec.p_topic:
                pool = topic_pool
            elif d < spec.p_attr + spec.p_topic + spec.p_base:
                pool = base_pool
            else:
                pool = filler
            values.append(pool[int(rng.integers(0, len(pool)))])
        columns.append(Column(table_id=f"base{base_idx}", position=j,
                              name=headers[j], values=values))
    return Table(table_id=f"base{base_idx}", name=f"base{base_idx}",
                 headers=headers, columns=columns, source_path=None)


def _derive(spec: BenchmarkSpec, base: Table, idx: int
            ) -> tuple[Table, set[int]]:
    """Project random columns (permuted) and select random rows of a base."""
    rng = rng_for(spec.seed, "derive", base.table_id, idx)
    n = base.n_columns
    n_keep = int(rng.integers((n + 1) // 2, n + 1))
    kept = rng.permutation(n)[:n_keep]          # permuted order on purpose
    n_rows = base.n_rows
    take = int(round(n_rows * rng.uniform(*DERIVED_ROW_RANGE)))
    take = min(n_rows, max(ROW_FLOOR, take))
    rows = np.sort(rng.choice(n_rows, size=take, replace=False))

    table_id = f"{base.table_id}_d{idx}"
    headers = [base.headers[int(b)] for b in kept]
    columns = []
    for new_pos, b in enumerate(int(x) for x in kept):
        src = base.columns[b]
        columns.append(Column(table_id=table_id, position=new_pos,
                              name=src.name,
                              values=[src.values[r] for r in rows]))
    table = Table(table_id=table_id, name=table_id, headers=headers,
                  columns=columns, source_path=None)
    return table, {int(b) for b in kept}


def generate_benchmark(spec: BenchmarkSpec) -> tuple[Corpus, GroundTruth]:
    """Corpus of derived tables plus table-level unionability ground truth,
    found per base."""
    tables: list[Table] = []
    truth: GroundTruth = {}
    for bi in range(spec.n_bases):
        base = _make_base(spec, bi)
        group: list[tuple[str, set[int]]] = []   # (table id, base columns)
        if spec.include_bases:
            tables.append(base)
            group.append((base.table_id, set(range(base.n_columns))))
        for d in range(spec.derivations_per_base):
            derived, kept = _derive(spec, base, d)
            tables.append(derived)
            group.append((derived.table_id, kept))
        for qid, qcols in group:
            truth[qid] = {cid for cid, ccols in group
                          if cid != qid and qcols & ccols}
    return Corpus(tables=tables), truth


def topic_of(table_id: str, spec: BenchmarkSpec) -> int:
    """Topic of a generated table, recovered from its base index."""
    base_part = table_id.split("_")[0]
    if not base_part.startswith("base"):
        raise InputError(f"not a generated table id: {table_id!r}")
    return int(base_part[len("base"):]) % spec.n_topics


def precision_recall_at_k(result: QueryResult, answers: set[str], k: int
                          ) -> tuple[float, float]:
    """Precision over min(k, returned) and recall over the answer set.

    An empty result scores zero on both; recall of an empty answer set is
    undefined and such queries should be excluded upstream.
    """
    top = result.ranked[:k]
    if not top:
        return 0.0, 0.0
    hits = sum(1 for r in top if r.candidate_table_id in answers)
    precision = hits / min(k, len(top))
    recall = hits / len(answers) if answers else 0.0
    return precision, recall


def evaluate_engine(engine: SearchEngine, corpus: Corpus, truth: GroundTruth,
                    cfg: SearchConfig, ks: list[int],
                    query_ids: list[str] | None = None
                    ) -> list[tuple[int, float, float]]:
    """Mean precision/recall at each k over queries with non-empty answers."""
    if not ks:
        raise ConfigError("need at least one k to evaluate")
    if query_ids is None:
        query_ids = [t.table_id for t in corpus.tables]
    else:
        missing = [q for q in query_ids if q not in truth]
        if missing:
            raise InputError(f"queries missing from ground truth: {missing[:5]}")
    # canonical order so float accumulation cannot depend on caller ordering
    eligible = sorted(qid for qid in set(query_ids) if truth.get(qid))
    if not eligible:
        raise InputError("no queries with non-empty answer sets")
    deep_cfg = replace(cfg, k=max(ks))
    results = [top_k_search(engine, corpus.table(qid), deep_cfg)
               for qid in eligible]
    rows = []
    for k in ks:
        pr = [precision_recall_at_k(res, truth[qid], k)
              for qid, res in zip(eligible, results)]
        mean_p = float(np.mean([p for p, _ in pr]))
        mean_r = float(np.mean([r for _, r in pr]))
        rows.append((k, mean_p, mean_r))
    return rows


def brute_force_search(engine: SearchEngine, query_table: Table,
                       cfg: SearchConfig) -> QueryResult:
    """Exhaustive oracle: identical scoring path, no candidate pruning."""
    return top_k_search(engine, query_table, replace(cfg, exhaustive=True))


def timing_harness(engine: SearchEngine, query_tables: list[Table],
                   cfg: SearchConfig, include_exhaustive: bool = True
                   ) -> list[tuple[str, float, float]]:
    """Sequential wall-clock query timings, indexed and (optionally) exhaustive."""
    if not query_tables:
        raise InputError("timing harness needs at least one query table")
    phases = [("query", False)]
    if include_exhaustive:
        phases.append(("query_exhaustive", True))
    rows = []
    for phase, exhaustive in phases:
        phase_cfg = replace(cfg, exhaustive=exhaustive)
        start = time.perf_counter()
        for table in query_tables:
            top_k_search(engine, table, phase_cfg)
        total = time.perf_counter() - start
        rows.append((phase, total, total / len(query_tables)))
    return rows


# ---------------------------------------------------------------------------
# External CSV formats.

def write_truth(path: str | Path, truth: GroundTruth) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["query_table_id", "answer_table_id"])
        for qid in sorted(truth):
            for aid in sorted(truth[qid]):
                w.writerow([qid, aid])


def read_truth(path: str | Path) -> GroundTruth:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                rows = list(reader)
            except csv.Error as exc:   # e.g. a cell over the field size limit
                raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read truth file {path}: {exc}") from exc
    if not rows or rows[0] != ["query_table_id", "answer_table_id"]:
        raise InputError(f"{path}: not a ground-truth file")
    truth: GroundTruth = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise InputError(f"{path}:{line}: expected 2 fields, got {row}")
        qid, aid = row
        truth.setdefault(qid, set()).add(aid)
    return truth


def write_metrics(path: str | Path, rows: list[tuple[int, float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "mean_precision", "mean_recall"])
        for k, p, r in rows:
            w.writerow([k, f"{p:.9f}", f"{r:.9f}"])
