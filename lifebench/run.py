"""Lifecycle benchmark of the DESAlign reproduction.

Run one workload::

    python3 lifebench/run.py --workload align --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
public calls of every layer and reports the per-layer metrics, the
coverage check and the tracing overhead instead.  Human-readable lines go
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a result file under ``lifebench/out/results/``, and a traced run
its spans under ``lifebench/out/traces/``.

Compare two result sets (directories of result files)::

    python3 lifebench/run.py --compare lifebench/out/A lifebench/out/B
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("fit", "align", "serve", "serve-ingest")


def _prepare_imports() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the repro package is missing under {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))


def _load_workload(name: str):
    from lifebench import wl_align, wl_fit, wl_serve

    return {"fit": wl_fit.run, "align": wl_align.run,
            "serve": wl_serve.run_serve,
            "serve-ingest": wl_serve.run_serve_ingest}[name]


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args) -> int:
    _prepare_imports()
    from lifebench import layers
    from lifebench.common import fingerprint, git_info
    from lifebench.harness import Run

    spec = _benchmark_spec()
    ctx = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              OUT_DIR)
    try:
        result = _load_workload(args.workload)(ctx)
    finally:
        ctx.close()

    if args.trace:
        measured = dict.fromkeys(layers.per_layer_units(), 0.0)
        measured.update(result.get("per_layer", {}))
        declared = spec["per_layer"]
    else:
        measured = result["end_to_end"]
        declared = spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = measured.get(entry["name"])
        if value is None:
            raise RuntimeError(f"workload {args.workload!r} did not measure "
                               f"{entry['name']!r}")
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git": git_info(ROOT),
        "environment": fingerprint(),
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failed_checks": ctx.failed_checks,
        "failures": ctx.failures,
        "setup_times_s": ctx.setup_times,
        "metrics": metrics,
        **{key: value for key, value in result.items()
           if key not in ("end_to_end", "per_layer")},
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer"),
    }
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    name = (f"{args.workload}-seed{args.seed}-"
            f"trace{int(bool(args.trace))}-{stamp}")
    if ctx.tracer is not None:
        # The spans themselves, one JSON array per line:
        # [id, name, start, end, parent, request, thread].
        traces_dir = OUT_DIR / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
        spans_path = traces_dir / f"{name}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in ctx.tracer.spans():
                handle.write(json.dumps([
                    span.id, span.name, span.start, span.end, span.parent,
                    span.request, span.thread]) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, default=float) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {int(bool(args.trace))}  result file "
          f"{path.relative_to(ROOT)}")
    for name, (value, unit) in result["named"].items():
        print(f"  {name:<32} {value:14.6g} {unit}")
    if args.trace:
        coverage = result["trace"]["coverage"]
        print(f"  coverage of {coverage['root']}: "
              f"{100.0 * coverage['covered']:.2f}% of "
              f"{coverage['wall_s']:.3f} s over {coverage['roots']} root "
              "spans")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:14.6g} {entry['unit']}")
    print(f"  operations attempted {ctx.attempted}, failed {ctx.failed} "
          f"({ctx.failed_checks} correctness)")
    for failure in ctx.failures:
        print(f"  failure: {failure}")
    print(json.dumps({"correct": ctx.failed_checks == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of result files")
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(ROOT))
        from lifebench.compare import compare
        return compare(Path(args.compare[0]), Path(args.compare[1]),
                       _benchmark_spec())
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
