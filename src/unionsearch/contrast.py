"""Self-supervised contrastive training for column embeddings.

Positive pairs come from either of two label-free strategies:

* online: every eligible column in a batch of tables is sampled twice; the
  two samples share semantics because they come from the same column.
* offline: positive pairs are mined once before training starts, each
  column matched with its top-1 neighbor under the value-term Jaccard
  measure, and their base embeddings are computed once. Mining reads the
  value-term postings the index build files (``syntactic.lake_sets``) and
  counts term overlaps over them, cheap enough to run afresh on every
  training run.

Batches and the offline pairs' columns are embedded as the index build
embeds a lake, by ``Encoder.embed_block`` over ``corpus.cell_blocks``.

Both feed a temperature-scaled cross-entropy loss over cosine similarities:
with 2M instances ordered so (k, k+M) is the positive pair,

    l(k, k+M) = -log  exp(sim(k, k+M)/t) / sum_{l != k} exp(sim(k, l)/t)
    L = (1/2M) * sum_k [ l(k, k+M) + l(k+M, k) ]

which each batch of 2M instances turns into 2M positive and 2M(M-1)
negative ordered pairs. Gradients are analytic, flowing through both the
softmax and the cosine normalization, with max-subtraction inside each
softmax row for stability.

Online epochs, offline epochs and the validation set all run through one
loop: project, loss, a finite check, and, for training batches, backward
and a momentum SGD step. ``train`` trains a copy of the head it is given
and returns the copy as it stood after its best epoch; the caller's head
is left as it was.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .corpus import (Column, ColumnKey, Corpus, Table, cell_blocks,
                     sample_columns)
from .encoder import Encoder
from .errors import ConfigError, InputError, NumericError
from .projection import (ProjectionHead, TrainConfig, Velocity, backward,
                         project, sgd_step)
from .seeding import derive_seed, rng_for
from . import syntactic

ONLINE = "online"
OFFLINE = "offline"


@dataclass
class OfflinePair:
    column_key_a: ColumnKey
    column_key_b: ColumnKey
    match_score: float


@dataclass
class TrainResult:
    """A training run's head and history.

    ``velocity`` is the optimizer state the run ends with. It lives in
    memory only: model and index files do not store it.
    """

    head: ProjectionHead
    history: list[tuple[int, str, float]]   # (epoch, split, mean_loss)
    best_epoch: int
    velocity: Velocity | None = None


def build_online_batch(tables: list[Table], s: int, seed: int) -> list[Column]:
    """Two independent size-s samples per eligible column across the tables:
    2M sampled columns, sample k pairing with sample k+M.

    Eligible means at least one cell yields a token. Deterministic given the
    seed: per-column sample seeds are derived from (seed, column key, view),
    and all of a batch's generators are seeded in one pass.
    """
    if len(tables) < 2:
        raise InputError(f"online batch needs >= 2 tables, got {len(tables)}")
    eligible: list[Column] = []
    for t in tables:
        eligible.extend(c for c in t.columns if c.is_encodable())
    if len(eligible) < 2:
        raise NumericError(
            f"batch rejected: only {len(eligible)} eligible columns, "
            "loss needs at least one negative")
    return sample_columns(
        eligible * 2, s, [derive_seed(seed, col.table_id, col.position, view)
                          for view in (0, 1) for col in eligible])


def build_offline_pairs(corpus: Corpus, floor: float = 0.5) -> list[OfflinePair]:
    """Top-1 value-term Jaccard match per column, floored and deduplicated.

    For each encodable column, its most similar other column under the
    value TF-IDF set measure becomes a positive pair when the score reaches
    the floor. Ties break toward the lexicographically smaller column key.
    Pairs are unordered and deduplicated, returned sorted by descending
    score then key.
    """
    if not (0.0 < floor <= 1.0):
        raise ConfigError(f"offline floor must be in (0, 1], got {floor}")
    _, columns, sets = syntactic.lake_sets(
        sorted(corpus.columns(), key=lambda col: col.column_key))
    keys = [c.column_key for c in columns]
    postings = sets[syntactic.VALUE]
    # Each row's terms, read back from the postings.
    terms: list[list[str]] = [[] for _ in keys]
    for tok, rows in postings.postings.items():
        for row in rows.tolist():
            terms[row].append(tok)

    best: dict[ColumnKey, tuple[float, ColumnKey]] = {}
    for row, key in enumerate(keys):
        rows, scores = postings.match([frozenset(terms[row])])
        others = rows != row               # no column matches itself
        if not others.any():
            continue
        rows, scores = rows[others], scores[others]
        # Rows ascend, so the first maximum is the smallest key: ties go
        # to it.
        at = int(np.argmax(scores))
        if scores[at] >= floor:
            best[key] = (float(scores[at]), keys[int(rows[at])])

    seen: set[tuple[ColumnKey, ColumnKey]] = set()
    pairs: list[OfflinePair] = []
    for key in sorted(best):
        score, other = best[key]
        a, b = (key, other) if key <= other else (other, key)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        pairs.append(OfflinePair(column_key_a=a, column_key_b=b, match_score=score))
    pairs.sort(key=lambda p: (-p.match_score, p.column_key_a, p.column_key_b))
    return pairs


def nt_xent_loss(projected: np.ndarray, temperature: float
                 ) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. each of the 2M projected vectors.

    projected: (2M, d) with rows ordered so k and k+M are positives.
    Returns (L, dL/dprojected) with the gradient the same shape as the
    input. All arithmetic in float64; each softmax row subtracts its max.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    E = np.asarray(projected, dtype=np.float64)
    if E.ndim != 2 or E.shape[0] < 2 or E.shape[0] % 2 != 0:
        raise ConfigError(f"expected (2M, d) with 2M >= 2, got {E.shape}")
    n = E.shape[0]
    M = n // 2

    norms = np.linalg.norm(E, axis=1)
    bad = np.where(norms == 0.0)[0]
    if bad.size:
        raise NumericError(f"zero-norm projected vector at instance {bad[0]}")
    U = E / norms[:, None]
    S = U @ U.T
    partner = np.concatenate([np.arange(M) + M, np.arange(M)])

    Z = S / temperature
    np.fill_diagonal(Z, -np.inf)           # anchor never competes with itself
    m = Z.max(axis=1, keepdims=True)
    expz = np.exp(Z - m)
    denom = expz.sum(axis=1)
    log_denom = m[:, 0] + np.log(denom)
    losses = log_denom - Z[np.arange(n), partner]
    loss = float(losses.sum() / n)

    P = expz / denom[:, None]              # row-wise softmax over l != k
    C = P.copy()
    C[np.arange(n), partner] -= 1.0
    C /= n * temperature                   # dL/dS[k, l], diagonal already 0
    W = C + C.T
    grad = (W @ U - (W * S).sum(axis=1)[:, None] * U) / norms[:, None]
    return loss, grad


def _split_tables(tables: list[Table], cfg: TrainConfig
                  ) -> tuple[list[Table], list[Table]]:
    """Held-out validation split, fixed by seed. Tiny corpora get no split."""
    order = list(range(len(tables)))
    rng_for(cfg.seed, "val-split").shuffle(order)
    n_val = round(cfg.validation_fraction * len(tables))
    if len(tables) >= 8:
        n_val = max(2, n_val)
    else:
        n_val = 0
    val = [tables[i] for i in sorted(order[:n_val])]
    train = [tables[i] for i in sorted(order[n_val:])]
    return train, val


def _chunk(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _embed(encoder: Encoder, columns: list[Column]) -> np.ndarray:
    """The columns' base embeddings, one per row, from cell block passes."""
    return np.concatenate([encoder.embed_block(block)
                           for block in cell_blocks(columns)])


def _online_batches(encoder: Encoder, tables: list[Table], cfg: TrainConfig,
                    *seed_parts: object) -> Iterator[np.ndarray]:
    """Base embeddings of one online batch per chunk of cfg.batch_size tables.

    Chunk b is sampled under derive_seed(cfg.seed, *seed_parts, b). A chunk
    of one table, or one with no negative, is skipped but keeps its number.
    """
    for b, chunk in enumerate(_chunk(tables, cfg.batch_size)):
        if len(chunk) < 2:
            continue
        try:
            samples = build_online_batch(chunk, cfg.sample_size,
                                         derive_seed(cfg.seed, *seed_parts, b))
        except NumericError:
            continue
        yield _embed(encoder, samples)


def _losses(head: ProjectionHead, batches: Iterable[np.ndarray],
            cfg: TrainConfig, velocity: Velocity | None = None) -> list[float]:
    """The loss of each batch under the head, in order.

    Given a velocity, each batch also takes one momentum SGD step on the
    head before the next batch is scored.
    """
    losses = []
    for X in batches:
        loss, dY = nt_xent_loss(project(head, X), cfg.temperature)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss}; aborting training")
        if velocity is not None:
            sgd_step(head, backward(head, X, dY), cfg.learning_rate,
                     cfg.momentum, velocity)
        losses.append(loss)
    return losses


def train(corpus: Corpus, encoder: Encoder, head: ProjectionHead,
          cfg: TrainConfig, strategy: str = ONLINE) -> TrainResult:
    """Train a copy of the head; return the copy at its best epoch.

    The head passed in is left as it was. The online strategy draws fresh
    samples every epoch; offline mines fixed positive pairs at
    cfg.offline_floor (restricted to training-split tables), with base
    embeddings computed once. Validation loss is always measured on the same
    online-style batches from the held-out tables, drawn once with a fixed
    seed, so it is comparable across epochs and strategies; without a
    validation split the training loss picks the best epoch.
    """
    if strategy not in (ONLINE, OFFLINE):
        raise ConfigError(f"unknown strategy {strategy!r}")
    eligible_tables = [t for t in corpus.tables
                       if any(c.is_encodable() for c in t.columns)]
    if len(eligible_tables) < 2:
        raise InputError("corpus has fewer than 2 tables with encodable columns")

    train_tables, val_tables = _split_tables(eligible_tables, cfg)
    val_batches = list(_online_batches(encoder, val_tables, cfg, "val"))

    if strategy == OFFLINE:
        pairs = build_offline_pairs(corpus, floor=cfg.offline_floor)
        train_ids = {t.table_id for t in train_tables}
        usable = [p for p in pairs
                  if p.column_key_a[0] in train_ids and p.column_key_b[0] in train_ids]
        if len(usable) < 2:
            raise InputError(
                f"offline strategy needs >= 2 training pairs, got {len(usable)}")
        involved = sorted({k for p in usable for k in (p.column_key_a, p.column_key_b)})
        # Positive examples are fixed, so their base embeddings are computed once.
        base_vecs = dict(zip(involved, _embed(
            encoder, [corpus.column(k) for k in involved])))

    head = head.copy()
    velocity = Velocity.zeros_like(head)
    history: list[tuple[int, str, float]] = []
    best_head, best_loss, best_epoch = head.copy(), np.inf, 0
    for epoch in range(1, cfg.epochs + 1):
        rng = rng_for(cfg.seed, "epoch", epoch)
        if strategy == ONLINE:
            order = rng.permutation(len(train_tables))
            batches = _online_batches(
                encoder, [train_tables[i] for i in order], cfg, epoch)
        else:
            order = rng.permutation(len(usable))
            batches = (np.stack([base_vecs[p.column_key_a] for p in chunk]
                                + [base_vecs[p.column_key_b] for p in chunk])
                       for chunk in _chunk([usable[i] for i in order],
                                           cfg.batch_size)
                       if len(chunk) >= 2)
        losses = _losses(head, batches, cfg, velocity)
        if not losses:
            raise InputError("no eligible training batches")
        selector = float(np.mean(losses))
        history.append((epoch, "train", selector))
        if val_batches:
            selector = float(np.mean(_losses(head, val_batches, cfg)))
            history.append((epoch, "val", selector))
        if selector < best_loss:
            best_head, best_loss, best_epoch = head.copy(), selector, epoch

    return TrainResult(head=best_head, history=history, best_epoch=best_epoch,
                       velocity=velocity)


# ---------------------------------------------------------------------------
# External format: loss history.

def write_loss_history(path: str | Path, history: list[tuple[int, str, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "split", "mean_loss"])
        for epoch, split, loss in history:
            w.writerow([epoch, split, f"{loss:.9f}"])
