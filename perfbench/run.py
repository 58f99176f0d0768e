"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload query-banded --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy. Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics named in BENCHMARK.json, with
``--trace 1`` the per-layer ones. Everything the run writes lands in
``.bench_out/`` under the checkout: a run record per run, the spans of a
traced run, and a temporary directory for the lake, index and result files
that is removed at exit.
"""

from __future__ import annotations

import os

# One client, one thread: numpy's BLAS must not start threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def blas_threads(numpy_module) -> int | None:
    """Threads numpy's bundled OpenBLAS will use, if it can be asked."""
    libs = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the query stream after the picked tables")
    parser.add_argument("--pick-seed", type=int, default=77,
                        help="query-pick seed; 77 gives the ROADMAP's 25 queries")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "unionsearch" / "__init__.py").is_file():
        print(f"no unionsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "blas_threads": blas_threads(numpy)}
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        outcome = workloads.run(args.workload, Path(work), args.seed,
                                args.pick_seed, args.seconds, tracer)

    values = dict(outcome.values)
    if tracer is not None:
        # The traced run's own end-to-end numbers; minus the untraced ones
        # they give the tracing overhead.
        traced = {f"traced.{name}": values[name] for name in
                  ("latency_ms.p50", "queries_per_s", "index_s", "load_s")}
        values = tracing.per_layer(tracer, outcome.ops)
        values.update(traced)
        for name in ("search.recall_at_10", "machine.ref_loop_ms"):
            values[name] = outcome.values[name]
    ledger = outcome.ledger
    values["failed_ops"] = (ledger.failed / max(ledger.attempted, 1), "share")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in wanted}

    label = (f"{args.workload}-seed{args.seed}-pick{args.pick_seed}"
             f"-trace{args.trace}")
    record = {"workload": args.workload, "seed": args.seed,
              "pick_seed": args.pick_seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": outcome.inputs,
              "values": {k: {"value": v, "unit": u}
                         for k, (v, u) in sorted(values.items())},
              "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems[:20]}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{label}.spans.npz")

    print(f"# {label}  seconds {args.seconds:g}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# inputs " + " ".join(f"{k}={v}" for k, v in outcome.inputs.items()))
    for problem in ledger.problems[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in sorted(values.items()):
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
