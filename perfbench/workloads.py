"""The benchmark's three workloads on the ROADMAP's 10k-column lake.

Every workload starts from the same generated lake (written as CSV files
plus a manifest) and goes through the library's public entry points only:

* ``ingest``: the write path, once per lake: ``load_manifest``, a short
  online ``train``, ``build_engine``, ``save_index`` and ``load_index``,
  then the first queries against the freshly loaded index, each compared
  byte for byte with the same query against the in-memory engine.
* ``query-banded``: one client in a closed loop against a loaded index,
  candidates from the LSH indexes.
* ``query-exhaustive``: the same loop with ``exhaustive=True``, which
  scores every indexed column and never touches an LSH lookup. Its
  queries are the stream's tables split into one-column tables: a whole
  table takes 0.5 to 1.5 s here, so a run would hold about ten samples
  and its tail percentile would be a single query.

The query workloads build their index with an untrained head in set-up,
the way ``unionsearch index`` and ``unionsearch eval`` would serve it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from unionsearch import bench, contrast, corpus, modelfile, search
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.projection import ProjectionHead, TrainConfig, init_head
from unionsearch.seeding import rng_for
from unionsearch.syntactic import NAME, SEMANTIC, VALUE

from speed import Speedometer
from tracing import Patches, Tracer

WORKLOADS = ("ingest", "query-banded", "query-exhaustive")

# The ROADMAP corpus: 2,700 tables, 10,374 columns at seed 21.
LAKE_SPEC = bench.BenchmarkSpec(n_bases=300, derivations_per_base=9,
                                n_topics=10, base_columns=(4, 6),
                                base_rows=60, seed=21)
QUERY = search.SearchConfig(k=10, threshold=0.7,
                            measures=(SEMANTIC, NAME, VALUE))
DIM = 128                 # CLI defaults: --dim, hidden = dim, --out-dim
# Encoder, head, training and index seeds, those of acceptance gate 8. They
# stay fixed: each of them alone moves banded p50 latency between about 45
# and 85 ms, so a seeded engine would swamp the changes being measured.
ENGINE_SEED = 9
TRAIN_EPOCHS = 1
ROADMAP_QUERIES = 25      # the first tables of rng_for(pick_seed, "pick")
TAIL_BEYOND = 10          # samples a tail percentile must leave above it
INGEST_SETUPS = 5         # lake writes; setup_s is their median
INGEST_QUERIES = 150      # answered by each freshly loaded index
# A query run answers seconds * rate queries, about the rate each workload
# runs at on a 2-vCPU machine. A fixed count rather than a deadline keeps
# the queries, and so the percentiles, the same on both sides of a
# comparison.
SIZING_QPS = {"query-banded": 16.0, "query-exhaustive": 4.0}
WARMUP_QUERIES = 3
RERUN_QUERIES = 5

clock = time.perf_counter


@dataclass
class Ledger:
    """Operations attempted and failed: library calls and correctness checks.

    A call fails when it raises, a check when its condition is false.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def run(self, what: str, fn, *args):
        """Call fn; None if it raised."""
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what} raised")
            return None
        self.attempted += 1
        return result


@dataclass
class Outcome:
    """What one run measured; ``values`` maps metric name to (value, unit)."""

    values: dict[str, tuple[float, str]]
    ledger: Ledger
    inputs: dict[str, object]
    ops: int            # measured operations: queries, or the ingest pass


def latency_metrics(latencies: list[float], scales: list[float]
                    ) -> dict[str, tuple[float, str]]:
    """p50, the highest percentile with TAIL_BEYOND samples above it, rate.

    The bounded figures use each latency times its machine-speed scale;
    the ``raw.`` ones the latencies as timed.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} latency samples leave no tail percentile")
    scaled = [t * k for t, k in zip(latencies, scales)]
    out = {"latency_ms.tail_pct": (100.0 * (n - TAIL_BEYOND) / n, "%"),
           "latency_ms.samples": (float(n), "count")}
    for prefix, times in (("", scaled), ("raw.", latencies)):
        ordered = sorted(times)
        out[f"{prefix}latency_ms.p50"] = (statistics.median(ordered) * 1e3, "ms")
        out[f"{prefix}latency_ms.tail"] = (
            ordered[n - TAIL_BEYOND - 1] * 1e3, "ms")
        # Queries back to back: one over the mean latency.
        out[f"{prefix}queries_per_s"] = (n / sum(times), "1/s")
    return out


def serve(engine: search.SearchEngine, tables: list[corpus.Table],
          cfg: search.SearchConfig, speed: Speedometer, ledger: Ledger,
          tracer: Tracer | None
          ) -> tuple[list[tuple[corpus.Table, search.QueryResult]],
                     dict[str, tuple[float, str]]]:
    """One client answering tables in order, a reference loop before each."""
    first = len(speed.loops)
    latencies: list[float] = []
    answered: list[int] = []
    results: list[tuple[corpus.Table, search.QueryResult]] = []
    for i, table in enumerate(tables):
        if tracer is not None:
            tracer.request = i + 1
        speed.probe()
        t0 = clock()
        result = ledger.run("query", search.top_k_search, engine, table, cfg)
        elapsed = clock() - t0
        if result is not None:
            latencies.append(elapsed)
            answered.append(i)
            results.append((table, result))
    speed.probe()
    scales = speed.query_scales(first, len(tables))
    return results, latency_metrics(latencies, [scales[i] for i in answered])


def write_lake(out_dir: Path) -> Path:
    """Generate the lake and write it as CSV files plus a manifest."""
    lake, _ = bench.generate_benchmark(LAKE_SPEC)
    tables_dir = out_dir / "tables"
    tables_dir.mkdir(parents=True)
    entries = []
    for table in lake.tables:
        rel = f"tables/{table.table_id}.csv"
        corpus.write_table_csv(out_dir / rel, table)
        entries.append((table.table_id, rel))
    manifest = out_dir / "manifest.tsv"
    corpus.write_manifest(manifest, entries)
    return manifest


def lake_properties(lake: corpus.Corpus) -> dict[str, object]:
    cells = [v for c in lake.columns() for v in c.values]
    distinct = len(set(cells))
    return {"tables": len(lake.tables), "columns": lake.column_count,
            "cells": len(cells), "distinct_cells": distinct,
            "distinct_cell_share": round(distinct / len(cells), 5)}


def query_stream(lake: corpus.Corpus, pick_seed: int, seed: int
                 ) -> list[corpus.Table]:
    """The ROADMAP's picked tables first, then the rest in seeded order."""
    picked = rng_for(pick_seed, "pick").permutation(len(lake.tables))
    first = [int(i) for i in picked[:ROADMAP_QUERIES]]
    rest = sorted(set(range(len(lake.tables))) - set(first))
    order = first + [rest[int(i)] for i in
                     rng_for(seed, "stream").permutation(len(rest))]
    return [lake.tables[i] for i in order]


def one_column(table: corpus.Table, column: corpus.Column) -> corpus.Table:
    """A query table holding one column; its id still excludes its source."""
    return corpus.Table(table_id=table.table_id, name=table.name,
                        headers=[column.name], columns=[column],
                        source_path=table.source_path)


def engine_parts() -> tuple[EncoderConfig, ProjectionHead, search.IndexConfig]:
    return (EncoderConfig(dim=DIM, hash_seed=ENGINE_SEED),
            init_head(DIM, DIM, DIM, seed=ENGINE_SEED),
            search.IndexConfig(seed=ENGINE_SEED))


def result_bytes(results: list[search.QueryResult], path: Path) -> bytes:
    search.write_results(path, results)
    return path.read_bytes()


def scores_in_range(result: search.QueryResult) -> bool:
    return all(0.0 <= r.table_score <= 1.0
               and all(0.0 <= m.score <= 1.0 for m in r.matches)
               for r in result.ranked)


def recall_at_k(engine: search.SearchEngine, tables: list[corpus.Table],
                ledger: Ledger) -> float:
    """Mean share of the brute-force top-k tables the banded top-k returns."""
    shares = []
    for table in tables:
        banded = ledger.run("banded query", search.top_k_search,
                            engine, table, QUERY)
        oracle = ledger.run("oracle query", bench.brute_force_search,
                            engine, table, QUERY)
        if banded is None or oracle is None:
            continue
        ledger.check(scores_in_range(banded) and scores_in_range(oracle),
                     f"score out of [0, 1] for {table.table_id}")
        if not oracle.ranked:
            continue
        want = {r.candidate_table_id for r in oracle.ranked}
        got = {r.candidate_table_id for r in banded.ranked}
        shares.append(len(want & got) / len(want))
    return statistics.fmean(shares) if shares else 0.0


def _traced(tracer: Tracer | None):
    return Patches(tracer) if tracer is not None else contextlib.nullcontext()


def run_ingest(work: Path, seed: int, pick_seed: int, seconds: float,
               tracer: Tracer | None) -> Outcome:
    """Write the lake INGEST_SETUPS times as set-up, then one write pass.

    The pass takes longer than ``seconds`` on this lake, so ``seconds``
    does not change what an ingest run does.
    """
    ledger = Ledger()
    speed = Speedometer()
    setups = []
    for i in range(INGEST_SETUPS):
        gc.collect()
        setups.append(speed.phase(write_lake, work / f"lake{i}"))
    manifest = setups[-1][0]

    index_path = work / "index.usi"
    enc_cfg, head, icfg = engine_parts()
    tc = TrainConfig(epochs=TRAIN_EPOCHS, seed=ENGINE_SEED)
    with _traced(tracer):
        gc.collect()
        lake, manifest_raw, manifest_s = speed.phase(corpus.load_manifest,
                                                     manifest)
        trained, train_raw, train_s = speed.phase(
            contrast.train, lake, Encoder(enc_cfg), head, tc)

        def build() -> search.SearchEngine:
            bundle = modelfile.ModelBundle(
                encoder_config=enc_cfg, head=trained.head, train_config=tc,
                strategy=contrast.ONLINE, best_epoch=trained.best_epoch,
                velocity=trained.velocity)
            built = search.build_engine(lake, Encoder(enc_cfg), trained.head,
                                        icfg)
            modelfile.save_index(index_path, bundle, built)
            return built

        built, build_raw, build_s = speed.phase(build)
        bytes_per_col = index_path.stat().st_size / built.semantic_index.size

        # Reference answers from the in-memory engine; the loaded engine
        # must reproduce them byte for byte (the save/load round trip).
        tables = query_stream(lake, pick_seed, seed)[:INGEST_QUERIES]
        expected = {table.table_id: ledger.run("query", search.top_k_search,
                                               built, table, QUERY)
                    for table in tables[:ROADMAP_QUERIES]}
        del built
        gc.collect()
        (_, loaded), load_raw, load_s = speed.phase(modelfile.load_index,
                                                    index_path)
        served, latency = serve(loaded, tables, QUERY, speed, ledger, tracer)

    for table, result in served:
        ledger.check(scores_in_range(result),
                     f"score out of [0, 1] for {table.table_id}")
    for table, result in served:
        want = expected.get(table.table_id)
        if want is not None:
            ledger.check(
                result_bytes([result], work / "served.csv")
                == result_bytes([want], work / "direct.csv"),
                f"load_index result differs for {table.table_id}")

    values = {"setup_s": (statistics.median(s for _, _, s in setups), "s"),
              "raw.setup_s": (statistics.median(r for _, r, _ in setups), "s"),
              "train_s": (train_s, "s"), "raw.train_s": (train_raw, "s"),
              "index_s": (manifest_s + build_s, "s"),
              "raw.index_s": (manifest_raw + build_raw, "s"),
              "load_s": (load_s, "s"), "raw.load_s": (load_raw, "s"),
              "index_bytes_per_col": (bytes_per_col, "B"),
              "machine.ref_loop_ms": (
                  statistics.median(speed.loops) * 1e3, "ms")}
    values.update(latency)
    if tracer is not None:
        values["search.recall_at_10"] = (
            recall_at_k(loaded, tables[:ROADMAP_QUERIES], ledger), "ratio")
    inputs = lake_properties(lake)
    inputs.update(queries=len(served),
                  mean_query_columns=statistics.fmean(
                      t.n_columns for t in tables))
    return Outcome(values=values, ledger=ledger, inputs=inputs, ops=1)


def run_query(workload: str, work: Path, seed: int, pick_seed: int,
              seconds: float, tracer: Tracer | None) -> Outcome:
    ledger = Ledger()
    speed = Speedometer()
    cfg = replace(QUERY, exhaustive=workload == "query-exhaustive")
    enc_cfg, head, icfg = engine_parts()
    index_path = work / "index.usi"

    def build() -> tuple[corpus.Corpus, search.SearchEngine]:
        lake = corpus.load_manifest(manifest)
        bundle = modelfile.ModelBundle(
            encoder_config=enc_cfg, head=head, train_config=TrainConfig(),
            strategy=contrast.ONLINE, best_epoch=0)
        built = search.build_engine(lake, Encoder(enc_cfg), head, icfg)
        modelfile.save_index(index_path, bundle, built)
        return lake, built

    manifest, write_raw, write_s = speed.phase(write_lake, work / "lake")
    gc.collect()
    (lake, built), index_raw, index_s = speed.phase(build)
    bytes_per_col = index_path.stat().st_size / built.semantic_index.size
    del built
    gc.collect()
    (_, engine), load_raw, load_s = speed.phase(modelfile.load_index,
                                                index_path)
    tables = query_stream(lake, pick_seed, seed)
    stream = ([one_column(t, c) for t in tables for c in t.columns]
              if cfg.exhaustive else tables)

    def warm_up() -> None:
        for table in stream[-WARMUP_QUERIES:]:
            search.top_k_search(engine, table, cfg)

    _, warm_raw, warm_s = speed.phase(warm_up)
    gc.collect()

    n_queries = max(TAIL_BEYOND + 1, round(seconds * SIZING_QPS[workload]))
    with _traced(tracer):
        results, latency = serve(engine, stream[:n_queries], cfg, speed,
                                 ledger, tracer)

    for table, result in results:
        ledger.check(scores_in_range(result),
                     f"score out of [0, 1] for {table.table_id}")
    for table, result in results[:RERUN_QUERIES]:
        again = ledger.run("rerun", search.top_k_search, engine, table, cfg)
        if again is not None:
            first = hashlib.blake2b(result_bytes([result], work / "a.csv"))
            second = hashlib.blake2b(result_bytes([again], work / "b.csv"))
            ledger.check(first.digest() == second.digest(),
                         f"rerun digest differs for {table.table_id}")

    values = {"setup_s": (write_s + index_s + load_s + warm_s, "s"),
              "raw.setup_s": (write_raw + index_raw + load_raw + warm_raw, "s"),
              "index_s": (index_s, "s"), "raw.index_s": (index_raw, "s"),
              "load_s": (load_s, "s"), "raw.load_s": (load_raw, "s"),
              "index_bytes_per_col": (bytes_per_col, "B"),
              "machine.ref_loop_ms": (
                  statistics.median(speed.loops) * 1e3, "ms")}
    values.update(latency)
    if tracer is not None:
        values["search.recall_at_10"] = (
            recall_at_k(engine, tables[:ROADMAP_QUERIES], ledger), "ratio")
    inputs = lake_properties(lake)
    inputs.update(queries=len(results),
                  mean_query_columns=statistics.fmean(
                      t.n_columns for t, _ in results))
    return Outcome(values=values, ledger=ledger, inputs=inputs,
                   ops=len(results))


def run(workload: str, work: Path, seed: int, pick_seed: int,
        seconds: float, tracer: Tracer | None) -> Outcome:
    if workload == "ingest":
        outcome = run_ingest(work, seed, pick_seed, seconds, tracer)
    else:
        outcome = run_query(workload, work, seed, pick_seed, seconds, tracer)
    outcome.values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return outcome
