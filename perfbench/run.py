"""The repository benchmark: two workloads on the wall clock.

Run from the repository root:

    python3 perfbench/run.py --workload wsi_stream --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/spec.json`` for what each stresses and why):
``wsi_stream`` (offline slide segmentation) and ``tile_api`` (pyramid
tile-serving API, open then closed loop). Inputs are generated from
``--seed`` before any timing.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off. ``--trace 1`` measures once untraced and once with
``repro.obs`` tracing, kernel profiling and the benchmark's layer probes
on, and reports the per-layer metrics, including tracing overhead and
coverage. A human-readable table goes to standard output first; the last
line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``). Reports, the per-layer table and the Chrome trace are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before NumPy loads: the driver thread plus the
# engine batcher already fill the host's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wsi_stream", "tile_api")


def _table(rows, header) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(header, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths))
              for r in rows]
    return "\n".join(lines)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    from common import environment, peak_rss_mb, tail_count

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ops = tuple(m["name"][len("runtime.op."):-len("_s")]
                for m in bench["per_layer"]
                if m["name"].startswith("runtime.op."))
    workload = importlib.import_module(args.workload)
    res = workload.run(args.seed, args.seconds, bool(args.trace), out,
                       spec, ops)
    e2e = dict(res["e2e"], peak_rss_mb=peak_rss_mb())
    failed = res["failed"] + res["mismatches"]
    attempted = max(res["attempted"], 1)
    env = environment()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    samples = res["samples"]

    def counted(name: str) -> str:
        n = samples.get(name, 1)
        return f"{n} ({tail_count(n, 95)} beyond)" if "_p95" in name \
            else str(n)

    rows = [(m["name"], _fmt(e2e[m["name"]]), m["unit"], m["better"],
             counted(m["name"])) for m in bench["end_to_end"]]
    rows.append(("fail_ratio", _fmt(failed / attempted), "ratio", "lower",
                 str(attempted)))
    print(_table(rows, ("end-to-end", "value", "unit", "better", "samples")))
    print(f"mismatches: {res['mismatches']}")
    print("info: " + ", ".join(f"{k}={_fmt(v)}" for k, v in res["info"].items()
                               if not isinstance(v, (dict, list))))

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "end_to_end": e2e, "samples": samples,
              "fail_ratio": failed / attempted, "info": res["info"]}
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        from repro.obs import write_chrome_trace
        layers = res["layers"]
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
        rows = [(m["name"], _fmt(metrics[m["name"]]["value"]), m["unit"])
                for m in bench["per_layer"]]
        table = _table(rows, ("per-layer", "value", "unit"))
        table += "\n\nlayer      moves (end-to-end metric: workload)\n" + \
            "\n".join(f"{layer:10s} {moves}"
                      for layer, moves in spec["layer_map"].items())
        print(table)
        (out / f"{stem}.layers.txt").write_text(table + "\n")
        write_chrome_trace(res["tracer"], str(out / f"{stem}.trace.json"))
        report["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    (out / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"correct": res["mismatches"] == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
