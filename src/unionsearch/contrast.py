"""Self-supervised contrastive training for column embeddings.

Positive pairs come from either of two label-free strategies:

* online: every eligible column in a batch of tables is sampled twice; the
  two samples share semantics because they come from the same column.
* offline: positive pairs are mined once before training starts, each
  column matched with its top-1 neighbor under the value-term Jaccard
  measure, and their base embeddings are computed once. Mining counts
  term overlaps over an inverted list, cheap enough to run afresh on every
  training run.

Both feed a temperature-scaled cross-entropy loss over cosine similarities:
with 2M instances ordered so (k, k+M) is the positive pair,

    l(k, k+M) = -log  exp(sim(k, k+M)/t) / sum_{l != k} exp(sim(k, l)/t)
    L = (1/2M) * sum_k [ l(k, k+M) + l(k+M, k) ]

which each batch of 2M instances turns into 2M positive and 2M(M-1)
negative ordered pairs. Gradients are analytic, flowing through both the
softmax and the cosine normalization, with max-subtraction inside each
softmax row for stability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Column, ColumnKey, Corpus, ColumnSample, Table, sample_column
from .encoder import Encoder
from .errors import ConfigError, InputError, NumericError
from .projection import (ProjectionHead, TrainConfig, Velocity, backward,
                         project, sgd_step)
from .seeding import derive_seed, rng_for
from . import syntactic

ONLINE = "online"
OFFLINE = "offline"


@dataclass
class TrainingBatch:
    """2M sampled column instances; instance k pairs with instance k+M."""

    samples: list[ColumnSample]
    m_pairs: int


@dataclass
class OfflinePair:
    column_key_a: ColumnKey
    column_key_b: ColumnKey
    match_score: float


@dataclass
class TrainResult:
    head: ProjectionHead
    history: list[tuple[int, str, float]]   # (epoch, split, mean_loss)
    best_epoch: int
    velocity: Velocity | None = None        # final optimizer state


def build_online_batch(tables: list[Table], s: int, seed: int) -> TrainingBatch:
    """Two independent size-s samples per eligible column across the tables.

    Eligible means at least one cell yields a token. Deterministic given the
    seed: per-column sample seeds are derived from (seed, column key, view).
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
    views = []
    for view in (0, 1):
        for col in eligible:
            sub = derive_seed(seed, col.table_id, col.position, view)
            views.append(sample_column(col, s, sub))
    return TrainingBatch(samples=views, m_pairs=len(eligible))


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
    columns = corpus.encodable_columns()
    tfidf = syntactic.build_tfidf(corpus)
    terms = {c.column_key: syntactic.value_terms(c, tfidf) for c in columns}

    # ScanCount (Li, Lu & Lu, ICDE 2008): one inverted list of row numbers
    # per term, so a column's intersection sizes with every row are one
    # bincount over its terms' lists.
    keys = sorted(terms)
    posting_lists: dict[str, list[int]] = {}
    for row, key in enumerate(keys):
        for tok in terms[key]:
            posting_lists.setdefault(tok, []).append(row)
    postings = {tok: np.array(rows, dtype=np.int64)
                for tok, rows in posting_lists.items()}
    sizes = np.array([len(terms[key]) for key in keys], dtype=np.int64)

    best: dict[ColumnKey, tuple[float, ColumnKey]] = {}
    for row, key in enumerate(keys):
        mine = terms[key]
        if not mine:
            continue
        inter = np.bincount(np.concatenate([postings[tok] for tok in mine]),
                            minlength=len(keys))
        inter[row] = 0
        scores = inter / (sizes[row] + sizes - inter)
        # The first maximum is the smallest key: ties go to it.
        other = int(np.argmax(scores))
        if inter[other] > 0 and scores[other] >= floor:
            best[key] = (float(scores[other]), keys[other])

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


def _encode_batch(encoder: Encoder, batch: TrainingBatch) -> np.ndarray:
    return np.stack([encoder.embed_column(s.sampled_values) for s in batch.samples])


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


def _validation_batches(encoder: Encoder, val_tables: list[Table],
                        cfg: TrainConfig) -> list[np.ndarray]:
    """Pre-encoded validation batches, identical across epochs."""
    batches = []
    for i, chunk in enumerate(_chunk(val_tables, cfg.batch_size)):
        if len(chunk) < 2:
            continue
        try:
            batch = build_online_batch(chunk, cfg.sample_size,
                                       derive_seed(cfg.seed, "val", i))
        except NumericError:
            continue
        batches.append(_encode_batch(encoder, batch))
    return batches


def _mean_val_loss(head: ProjectionHead, val_matrices: list[np.ndarray],
                   temperature: float) -> float:
    losses = [nt_xent_loss(project(head, X), temperature)[0] for X in val_matrices]
    return float(np.mean(losses))


def train(corpus: Corpus, encoder: Encoder, head: ProjectionHead,
          cfg: TrainConfig, strategy: str = ONLINE) -> TrainResult:
    """Run the training loop and return the head with the best validation loss.

    Online strategy draws fresh samples every epoch; offline mines fixed
    positive pairs at cfg.offline_floor (restricted to training-split
    tables), with base embeddings precomputed once. Validation loss is
    always measured on online-style batches from the held-out tables with a
    fixed seed, so it is comparable across epochs and strategies.
    """
    cfg.validate()
    if strategy not in (ONLINE, OFFLINE):
        raise ConfigError(f"unknown strategy {strategy!r}")
    eligible_tables = [t for t in corpus.tables
                       if any(c.is_encodable() for c in t.columns)]
    if len(eligible_tables) < 2:
        raise InputError("corpus has fewer than 2 tables with encodable columns")

    train_tables, val_tables = _split_tables(eligible_tables, cfg)
    val_matrices = _validation_batches(encoder, val_tables, cfg)

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
        base_vecs = {k: encoder.embed_column(corpus.column(k).values) for k in involved}

    velocity = Velocity.zeros_like(head)
    history: list[tuple[int, str, float]] = []
    best_head = head.copy()
    best_loss = np.inf
    best_epoch = 0
    ran_any_batch = False

    for epoch in range(1, cfg.epochs + 1):
        epoch_losses: list[float] = []
        rng = rng_for(cfg.seed, "epoch", epoch)
        if strategy == ONLINE:
            order = rng.permutation(len(train_tables))
            shuffled = [train_tables[i] for i in order]
            for b, chunk in enumerate(_chunk(shuffled, cfg.batch_size)):
                if len(chunk) < 2:
                    continue
                try:
                    batch = build_online_batch(chunk, cfg.sample_size,
                                               derive_seed(cfg.seed, epoch, b))
                except NumericError:
                    continue
                X = _encode_batch(encoder, batch)
                loss = _train_step(head, velocity, X, cfg)
                _check_finite(loss, epoch, b)
                epoch_losses.append(loss)
        else:
            order = rng.permutation(len(usable))
            shuffled_pairs = [usable[i] for i in order]
            for b, chunk in enumerate(_chunk(shuffled_pairs, cfg.batch_size)):
                if len(chunk) < 2:
                    continue
                X = np.stack([base_vecs[p.column_key_a] for p in chunk]
                             + [base_vecs[p.column_key_b] for p in chunk])
                loss = _train_step(head, velocity, X, cfg)
                _check_finite(loss, epoch, b)
                epoch_losses.append(loss)

        if not epoch_losses:
            raise InputError("no eligible training batches")
        ran_any_batch = True
        train_loss = float(np.mean(epoch_losses))
        history.append((epoch, "train", train_loss))

        if val_matrices:
            val_loss = _mean_val_loss(head, val_matrices, cfg.temperature)
            history.append((epoch, "val", val_loss))
            selector = val_loss
        else:
            selector = train_loss
        if selector < best_loss:
            best_loss = selector
            best_head = head.copy()
            best_epoch = epoch

    if not ran_any_batch:
        raise InputError("no eligible training batches")
    return TrainResult(head=best_head, history=history, best_epoch=best_epoch,
                       velocity=velocity)


def _train_step(head: ProjectionHead, velocity: Velocity, X: np.ndarray,
                cfg: TrainConfig) -> float:
    Y = project(head, X)
    loss, dY = nt_xent_loss(Y, cfg.temperature)
    grads = backward(head, X, dY)
    sgd_step(head, grads, cfg.learning_rate, cfg.momentum, velocity)
    return loss


def _check_finite(loss: float, epoch: int, batch_idx: int) -> None:
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} at epoch {epoch}, "
                           f"batch {batch_idx}; aborting training")


# ---------------------------------------------------------------------------
# External format: loss history.

def write_loss_history(path: str | Path, history: list[tuple[int, str, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "split", "mean_loss"])
        for epoch, split, loss in history:
            w.writerow([epoch, split, f"{loss:.9f}"])
