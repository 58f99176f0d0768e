"""In-memory spans around the library's layer boundaries, for traced runs.

The benchmark never edits the package. A traced run replaces functions and
methods at the names their callers look them up by (module globals, class
attributes, the ``SYNTACTIC_FUNCS`` table) with wrappers that record one
span per call: name, start, end, parent span and request id. Spans stay in
flat arrays until the run ends; ``Tracer.save`` writes them out and
``Tracer.layer_totals`` derives busy and self time per span name, where self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import weakref
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from unionsearch import contrast, corpus, modelfile, search, syntactic
from unionsearch.encoder import Encoder
from unionsearch.lshindex import CosineLshIndex, MinHashIndex


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter[str] = Counter()
        self.request = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()

        return traced

    def span_count(self) -> int:
        return len(self.starts)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.float64)
               - np.frombuffer(self.starts, dtype=np.float64))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        busy = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "s": float(busy[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 request=np.frombuffer(self.requests, dtype=np.int32),
                 start=np.frombuffer(self.starts, dtype=np.float64),
                 end=np.frombuffer(self.ends, dtype=np.float64))


def _band_candidates(index: CosineLshIndex, vector: np.ndarray) -> int:
    """Distinct keys sharing a band with the vector, from public state only."""
    bits = index.signature(vector).reshape(index.n_bands, index.rows_per_band)
    found: set = set()
    for band, row in enumerate(bits):
        found.update(index.buckets[band].get(np.packbits(row).tobytes(), ()))
    return len(found)


class Patches:
    """Installs traced wrappers and puts every original back on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def span(self, owner: object, attr: str, name: str) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._set(owner, attr, self.tracer.wrap(name, original))

    def __enter__(self) -> "Patches":
        t = self.tracer
        for owner, attr, name in [
            (corpus, "load_manifest", "corpus.load_manifest"),
            (Encoder, "embed_column", "encoder.embed_column"),
            (contrast, "train", "contrast.train"),
            (contrast, "build_online_batch", "contrast.build_online_batch"),
            (contrast, "nt_xent_loss", "contrast.nt_xent_loss"),
            (contrast, "project", "projection.project"),
            (contrast, "backward", "projection.backward"),
            (contrast, "sgd_step", "projection.sgd_step"),
            (search, "project", "search.project"),
            (syntactic, "build_tfidf", "syntactic.build_tfidf"),
            (syntactic, "build_profile", "syntactic.build_profile"),
            (CosineLshIndex, "insert", "lshindex.cosine.insert"),
            (MinHashIndex, "insert", "lshindex.minhash.insert"),
            (search, "build_engine", "search.build_engine"),
            (modelfile, "load_index", "modelfile.load_index"),
            (search, "attribute_unionability", "search.attribute_unionability"),
            (search.SearchEngine, "project_column", "search.project_column"),
            (search.SearchEngine, "query_profile", "search.query_profile"),
            (search, "match_attributes", "search.match_attributes"),
            (search, "table_unionability", "search.table_unionability"),
            (search, "top_k_search", "search.top_k_search"),
        ]:
            self.span(owner, attr, name)
        for measure in syntactic.SYNTACTIC_FUNCS:
            self.span(syntactic.SYNTACTIC_FUNCS, measure, "syntactic.measure")

        embed_token = Encoder.embed_token
        # Tokens each live encoder has been asked for; a first request is
        # the miss that fills that encoder's token cache.
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def counted_embed_token(encoder, token):
            t.counters["encoder.embed_token.calls"] += 1
            tokens = seen.setdefault(encoder, set())
            if token not in tokens:
                tokens.add(token)
                t.counters["encoder.embed_token.misses"] += 1
            return embed_token(encoder, token)

        self._set(Encoder, "embed_token", counted_embed_token)

        cosine_lookup = t.wrap("lshindex.cosine.lookup", CosineLshIndex.lookup)
        count = t.wrap("bench.count_candidates", _band_candidates)

        def counted_cosine_lookup(index, vector, threshold):
            t.counters["lshindex.cosine.candidates"] += count(index, vector)
            hits = cosine_lookup(index, vector, threshold)
            t.counters["lshindex.cosine.survivors"] += len(hits)
            return hits

        self._set(CosineLshIndex, "lookup", counted_cosine_lookup)

        save_index = t.wrap("modelfile.save_index", modelfile.save_index)

        def counted_save_index(path, bundle, engine):
            save_index(path, bundle, engine)
            t.counters["modelfile.bytes_written"] += Path(path).stat().st_size

        self._set(modelfile, "save_index", counted_save_index)

        minhash_lookup = t.wrap("lshindex.minhash.lookup", MinHashIndex.lookup)

        def counted_minhash_lookup(index, tokens, threshold):
            hits = minhash_lookup(index, tokens, threshold)
            t.counters["lshindex.minhash.survivors"] += len(hits)
            return hits

        self._set(MinHashIndex, "lookup", counted_minhash_lookup)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


# Spans reported as busy seconds per operation, and the ones that also get
# their self time or call count; an operation is one query, or one ingest
# pass on ``ingest``.
_BUSY = ("corpus.load_manifest", "encoder.embed_column", "contrast.train",
         "contrast.build_online_batch", "contrast.nt_xent_loss",
         "projection.project", "projection.backward", "projection.sgd_step",
         "search.project",
         "syntactic.build_tfidf", "syntactic.build_profile",
         "lshindex.cosine.insert", "lshindex.minhash.insert",
         "modelfile.save_index", "modelfile.load_index",
         "lshindex.cosine.lookup", "lshindex.minhash.lookup",
         "search.attribute_unionability", "syntactic.measure",
         "search.project_column", "search.query_profile",
         "search.match_attributes", "search.table_unionability")
_SELF = ("search.build_engine", "search.top_k_search", "lshindex.cosine.lookup")
_CALLS = ("encoder.embed_column", "syntactic.build_profile",
          "lshindex.cosine.lookup", "lshindex.minhash.lookup",
          "syntactic.measure")


def per_layer(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, normalised per operation."""
    totals = tracer.layer_totals()
    c = tracer.counters

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in _BUSY:
        out[f"{name}.s"] = (get(name, "s") / ops, "s")
    for name in _SELF:
        out[f"{name}.self_s"] = (get(name, "self_s") / ops, "s")
    for name in _CALLS:
        out[f"{name}.calls"] = (get(name, "calls") / ops, "count")

    token_calls = c["encoder.embed_token.calls"]
    lookups = get("lshindex.cosine.lookup", "calls")
    queries = get("search.top_k_search", "calls")
    pairs = get("search.attribute_unionability", "calls")
    out.update({
        "encoder.embed_token.calls": (token_calls / ops, "count"),
        "encoder.token_hit_ratio": (
            ratio(token_calls - c["encoder.embed_token.misses"], token_calls),
            "ratio"),
        "modelfile.bytes_written": (c["modelfile.bytes_written"] / ops, "B"),
        "lshindex.cosine.candidates_per_lookup": (
            ratio(c["lshindex.cosine.candidates"], lookups), "count"),
        "lshindex.cosine.survivors_per_lookup": (
            ratio(c["lshindex.cosine.survivors"], lookups), "count"),
        "lshindex.cosine.useful_ratio": (
            ratio(c["lshindex.cosine.survivors"],
                  c["lshindex.cosine.candidates"]), "ratio"),
        "lshindex.minhash.lookup.survivors": (
            c["lshindex.minhash.survivors"] / ops, "count"),
        # Share of query time, leaving out the tracer's own candidate count.
        "lshindex.cosine.lookup.query_share": (
            ratio(get("lshindex.cosine.lookup", "self_s"),
                  get("search.top_k_search", "s")
                  - get("bench.count_candidates", "s")), "ratio"),
        "search.pairs_scored": (ratio(pairs, queries), "count"),
        "search.pairs_scored_per_column": (
            ratio(pairs, get("search.project_column", "calls")), "count"),
        "trace.spans": (float(tracer.span_count()), "count"),
    })
    return out
