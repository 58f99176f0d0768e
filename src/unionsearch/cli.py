"""Command-line front door: train, index, query, eval, benchgen.

Every command is bit-deterministic under --seed, never mutates its inputs,
and writes outputs atomically (temp file + rename). Error exits follow a
fixed taxonomy so harness scripts can branch on them: 2 for bad input
(an OS error on a file included), 3 for bad configuration, 4 for numeric
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import bench, contrast, modelfile, search
from .corpus import load_csv, load_manifest, write_manifest, write_table_csv
from .encoder import Encoder, EncoderConfig, HASHING_BACKEND
from .errors import ConfigError, InputError, NumericError, UnionSearchError
from .modelfile import atomic_write
from .projection import TrainConfig, init_head
from .seeding import derive_seed, rng_for
from .syntactic import ALL_MEASURES, FORMAT, NAME, SEMANTIC, VALUE

EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_MEASURE_ALIASES = {
    "semantic": SEMANTIC, "sem": SEMANTIC, "s": SEMANTIC,
    "name": NAME, "n": NAME,
    "value": VALUE, "v": VALUE,
    "format": FORMAT, "f": FORMAT,
}


def parse_measures(text: str) -> tuple[str, ...]:
    """Comma list with aliases, e.g. "semantic,N,V"; canonical order out."""
    chosen = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in _MEASURE_ALIASES:
            raise ConfigError(f"unknown measure {part!r}; "
                              f"valid: {sorted(set(_MEASURE_ALIASES))}")
        canonical = _MEASURE_ALIASES[part]
        if canonical not in chosen:
            chosen.append(canonical)
    if not chosen:
        raise ConfigError("no measures given")
    return tuple(m for m in ALL_MEASURES if m in chosen)


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad k list {text!r}: {exc}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"k values must be positive, got {text!r}")
    return ks


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_manifest(args.manifest)
    enc_cfg = EncoderConfig(backend=args.encoder_backend, dim=args.dim,
                            vector_file_path=args.vector_file,
                            hash_seed=derive_seed(args.seed, "encoder"),
                            cell_as_single_token=args.cell_tokens)
    encoder = Encoder(enc_cfg)
    hidden = args.hidden_dim if args.hidden_dim else encoder.dim
    head = init_head(encoder.dim, hidden, args.out_dim,
                     seed=derive_seed(args.seed, "head"))
    tc = TrainConfig(temperature=args.temperature,
                     learning_rate=args.learning_rate,
                     momentum=args.momentum, epochs=args.epochs,
                     batch_size=args.batch_size, sample_size=args.sample_size,
                     seed=derive_seed(args.seed, "train"),
                     validation_fraction=args.validation_fraction,
                     offline_floor=args.offline_floor)

    pairs = None
    if args.strategy == contrast.OFFLINE:
        pairs_path = Path(args.pairs or f"{args.out}.pairs.csv")
        inputs = (tc.offline_floor, corpus.digest())
        if pairs_path.exists():
            pairs = contrast.read_offline_pairs(pairs_path, *inputs)
        if pairs is not None:
            print(f"loaded {len(pairs)} cached pairs from {pairs_path}")
        else:
            pairs = contrast.build_offline_pairs(corpus, floor=tc.offline_floor)
            atomic_write(pairs_path, lambda p: contrast.write_offline_pairs(
                p, pairs, *inputs))
            print(f"built and cached {len(pairs)} pairs at {pairs_path}")

    start = time.perf_counter()
    result = contrast.train(corpus, encoder, head, tc,
                            strategy=args.strategy, pairs=pairs)
    elapsed = time.perf_counter() - start

    bundle = modelfile.ModelBundle(encoder_config=encoder.cfg,
                                   head=result.head,
                                   train_config=tc, strategy=args.strategy,
                                   best_epoch=result.best_epoch,
                                   velocity=result.velocity)
    modelfile.save_model(args.out, bundle)
    loss_path = Path(args.loss_out or f"{args.out}.loss.csv")
    atomic_write(loss_path,
                 lambda p: contrast.write_loss_history(p, result.history))
    print(f"trained {args.epochs} epochs in {elapsed:.1f}s; "
          f"best epoch {result.best_epoch}")
    print(f"model: {args.out}")
    print(f"loss history: {loss_path}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    bundle = modelfile.load_model(args.model)
    corpus = load_manifest(args.manifest)
    encoder = Encoder(bundle.encoder_config)
    if bundle.head.dims[0] != encoder.dim:
        raise ConfigError(
            f"model expects {bundle.head.dims[0]}-dim base embeddings "
            f"but encoder produces {encoder.dim}")
    icfg = search.IndexConfig(seed=derive_seed(args.seed, "index"))
    start = time.perf_counter()
    engine = search.build_engine(corpus, encoder, bundle.head, icfg)
    elapsed = time.perf_counter() - start
    modelfile.save_index(args.out, bundle, engine)
    n = engine.semantic_index.size
    print(f"indexed {n} of {corpus.column_count} columns "
          f"in {elapsed:.1f}s ({elapsed / 60:.1f} min)")
    print(f"index: {args.out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    _, engine = modelfile.load_index(args.index)
    cfg = search.SearchConfig(k=args.k, threshold=args.threshold,
                              measures=parse_measures(args.measures))
    cfg.validate()
    results = []
    for qpath in args.query:
        table = load_csv(qpath)
        results.append(search.top_k_search(engine, table, cfg))
    atomic_write(args.out, lambda p: search.write_results(p, results))
    total = sum(len(r.ranked) for r in results)
    print(f"{len(results)} queries, {total} ranked candidates")
    print(f"results: {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.sample_queries < 0:
        raise ConfigError(
            f"--sample-queries must be >= 0, got {args.sample_queries}")
    _, engine = modelfile.load_index(args.index)
    corpus = load_manifest(args.manifest)
    truth = bench.read_truth(args.truth)
    ks = _parse_k_list(args.k)
    cfg = search.SearchConfig(k=max(ks), threshold=args.threshold,
                              measures=parse_measures(args.measures))
    cfg.validate()
    query_ids = sorted(t.table_id for t in corpus.tables if truth.get(t.table_id))
    if args.sample_queries and args.sample_queries < len(query_ids):
        order = rng_for(args.seed, "sample-queries").permutation(len(query_ids))
        query_ids = sorted(query_ids[i] for i in order[:args.sample_queries])
    rows = bench.evaluate_engine(engine, corpus, truth, cfg, ks, query_ids)
    atomic_write(args.out, lambda p: bench.write_metrics(p, rows))
    for k, p, r in rows:
        print(f"k={k}: precision={p:.4f} recall={r:.4f}")
    print(f"metrics: {args.out}")
    return 0


def cmd_benchgen(args: argparse.Namespace) -> int:
    spec = bench.BenchmarkSpec(n_bases=args.bases,
                               derivations_per_base=args.derivations,
                               n_topics=args.topics,
                               base_rows=args.rows,
                               seed=args.seed,
                               include_bases=args.include_bases)
    corpus, truth = bench.generate_benchmark(spec)
    out_dir = Path(args.out_dir)
    tables_dir = out_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for table in corpus.tables:
        rel = f"tables/{table.table_id}.csv"
        atomic_write(out_dir / rel, lambda p, t=table: write_table_csv(p, t))
        entries.append((table.table_id, rel))
    atomic_write(out_dir / "manifest.tsv",
                 lambda p: write_manifest(p, entries))
    atomic_write(out_dir / "truth.csv", lambda p: bench.write_truth(p, truth))
    n_pairs = sum(len(v) for v in truth.values())
    print(f"{len(corpus.tables)} tables, {corpus.column_count} columns, "
          f"{n_pairs} truth pairs")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    print(f"truth: {out_dir / 'truth.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unionsearch",
        description="Train, index, and query a table union search engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="master RNG seed (default 0)")

    p = sub.add_parser("train", help="learn a projection head from a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--strategy", choices=[contrast.ONLINE, contrast.OFFLINE],
                   default=contrast.ONLINE)
    p.add_argument("--encoder-backend", default=HASHING_BACKEND)
    p.add_argument("--vector-file", default=None,
                   help="word-vector file for the vector_file backend")
    p.add_argument("--cell-tokens", action="store_true",
                   help="treat each whole cell as a single token")
    p.add_argument("--dim", type=int, default=128,
                   help="base embedding dimension (hashing backend)")
    p.add_argument("--hidden-dim", type=int, default=0,
                   help="head hidden width (default: base dimension)")
    p.add_argument("--out-dim", type=int, default=128)
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--sample-size", type=int, default=20)
    p.add_argument("--validation-fraction", type=float, default=0.05)
    p.add_argument("--offline-floor", type=float, default=0.5)
    p.add_argument("--pairs", default=None,
                   help="offline pairs cache (default: <out>.pairs.csv)")
    p.add_argument("--loss-out", default=None,
                   help="loss history CSV (default: <out>.loss.csv)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="build the searchable index")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="index file to write")
    common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="top-k search for one or more tables")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, nargs="+",
                   help="query table CSV path(s)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--measures", default="semantic",
                   help='comma list, e.g. "semantic,N,V"')
    p.add_argument("--out", default="results.csv")
    common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="precision/recall against ground truth")
    p.add_argument("--index", required=True)
    p.add_argument("--manifest", required=True,
                   help="manifest of query tables")
    p.add_argument("--truth", required=True)
    p.add_argument("--k", default="10", help='comma list, e.g. "1,5,10"')
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--measures", default="semantic")
    p.add_argument("--sample-queries", type=int, default=0,
                   help="evaluate only this many queries (seeded sample)")
    p.add_argument("--out", default="metrics.csv")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchgen", help="generate a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bases", type=int, default=20)
    p.add_argument("--derivations", type=int, default=20)
    p.add_argument("--topics", type=int, default=5)
    p.add_argument("--rows", type=int, default=60)
    p.add_argument("--include-bases", action="store_true")
    common(p)
    p.set_defaults(func=cmd_benchgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Fail before any work, not when the finished output is written.
        for option in ("out", "pairs", "loss_out"):
            out_dir = Path(getattr(args, option, None) or ".").parent
            if not out_dir.is_dir():
                raise InputError(f"output directory {out_dir} does not exist")
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except UnionSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
