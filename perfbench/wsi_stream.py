"""``wsi_stream``: offline whole-slide segmentation through StreamingRunner.

A 4096² slide is generated from ``VirtualWSISource(seed)`` into memory
before timing and streamed from an ``ArraySource`` through a Predictor
(serial mode) into an ``NpyDirectorySink``, pass after pass, for the
measured window. Every tile is unique and there is no queue: APF
preprocessing, the content digest and the sink dominate.

Record the sink digests for a range of seeds (written into spec.json):

    python3 perfbench/wsi_stream.py --record 0 19
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

if __name__ == "__main__":       # record with BLAS pinned as run.py pins it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from common import (CLOCK, Probe, coverage, layer_metrics,  # noqa: E402
                    median, percentile, timed_setups, wrap_pipeline)

RES = 4096
TILE = 1024
ORGAN = 2
SPLIT = 16.0
MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=1024)
BUCKET = 256
MAX_BATCH = 4
SETUP_REPEATS = 5
CHECK_TILES = 2


def generate(seed: int) -> np.ndarray:
    """The slide, materialized (RES² RGB float64)."""
    from repro.stream import VirtualWSISource
    source = VirtualWSISource(RES, seed=seed, organ=ORGAN, tile=TILE)
    return source.read_region((0, 0), (RES, RES))


def build_predictor():
    from repro.models import ViTSegmenter
    from repro.pipeline import PatchPipeline
    from repro.serve import Predictor
    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=2)
    return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)


def _setup():
    pred = build_predictor()
    pred.warmup(lengths=range(BUCKET, MODEL["max_len"] + 1, BUCKET),
                batch_sizes=(1,))
    return pred


class _Pass:
    """One StreamingRunner.run over the whole slide into a fresh sink."""

    def __init__(self, pred, slide, plan, root: Path, tracer=None,
                 probe: Probe = None):
        from repro.stream import ArraySource, NpyDirectorySink, StreamingRunner
        if root.exists():
            shutil.rmtree(root)
        self.source = ArraySource(slide)
        self.sink = NpyDirectorySink(root, dtype=np.uint8)
        self.root = root
        self.plan = plan
        self.runner = StreamingRunner(pred, tracer=tracer)
        self.starts, self.ends = [], []
        read, write = self.source.read_region, self.sink.write

        def stamped_read(origin, size):
            self.starts.append(CLOCK())
            return read(origin, size)

        def stamped_write(tile, value):
            write(tile, value)
            self.ends.append(CLOCK())

        self.source.read_region = stamped_read
        self.sink.write = stamped_write
        if probe is not None:
            probe.wrap(self.source, "read_region", "stream.read")
            probe.wrap(self.sink, "write", "stream.sink_write")

    def run(self) -> float:
        t0 = CLOCK()
        self.runner.run(self.source, self.plan, self.sink, resume=False)
        return CLOCK() - t0

    def latencies(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def close(self) -> str:
        digest = self.sink.digest(self.plan)
        shutil.rmtree(self.root, ignore_errors=True)
        return digest


def _measure(pred, slide, plan, seconds: float, out: Path, tracer=None,
             probe: Probe = None) -> dict:
    walls, lat, digests = [], [], []
    t_end = CLOCK() + seconds
    while not walls or CLOCK() < t_end:
        p = _Pass(pred, slide, plan, out / "sink", tracer, probe)
        walls.append(p.run())
        lat.extend(p.latencies())
        last_pass = p
        digests.append(p.sink.digest(plan))
        if CLOCK() < t_end:
            shutil.rmtree(p.root, ignore_errors=True)
    return {"walls": walls, "latencies": lat, "digests": digests,
            "last": last_pass}


def _wrap_layers(probe: Probe, pred) -> None:
    import repro.serve.scheduler as scheduler
    import repro.stream.runner as runner
    wrap_pipeline(probe, pred.pipeline)
    probe.wrap(scheduler, "class_map", "stream.class_map")
    probe.wrap(runner, "class_map", "stream.class_map")


def _check(slide, plan, last: _Pass, seed: int) -> int:
    """Sampled tiles of the last pass against a fresh Predictor."""
    from repro.serve.predictor import class_map
    ref = build_predictor()
    rng = np.random.default_rng([seed, 0xC4E])
    bad = 0
    for i in rng.choice(len(plan.tiles), CHECK_TILES, replace=False):
        tile = plan.tiles[int(i)]
        want = class_map(ref.predict_image(slide[tile.slices()]))
        got = last.sink.read(tile)
        if not np.array_equal(got.astype(want.dtype), want):
            bad += 1
    shutil.rmtree(last.root, ignore_errors=True)
    return bad


def run(seed: int, seconds: float, trace: bool, out: Path, spec: dict,
        ops: tuple) -> dict:
    from repro.stream import plan_scene
    t0 = CLOCK()
    slide = generate(seed)
    gen_s = CLOCK() - t0
    plan = plan_scene(slide.shape, tile=TILE, max_len=MODEL["max_len"])
    setup_s, pred, setups = timed_setups(_setup, SETUP_REPEATS,
                                         lambda p: None)
    res = _measure(pred, slide, plan, seconds, out)
    walls, lat = res["walls"], res["latencies"]
    px = RES * RES
    tiles_done = len(lat)
    recorded = spec["workloads"]["wsi_stream"]["digests"].get(f"{RES}/{seed}")
    mismatched_passes = sum(
        1 for d in res["digests"]
        if d != res["digests"][0] or (recorded is not None and d != recorded))
    mismatches = mismatched_passes * len(plan.tiles) \
        + _check(slide, plan, res["last"], seed)
    out_e2e = {
        "setup_s": setup_s,
        "mpx_per_s": median([px / w / 1e6 for w in walls]),
        "latency_p50_s": percentile(lat, 50),
        "latency_p95_s": percentile(lat, 95),
    }
    result = {
        "e2e": out_e2e,
        "samples": {"setup_s": SETUP_REPEATS, "mpx_per_s": len(walls),
                    "latency_p50_s": tiles_done,
                    "latency_p95_s": tiles_done},
        "info": {"gen_s": gen_s, "setup_runs_s": setups, "passes": len(walls),
                 "pass_s": walls, "digest": res["digests"][0],
                 "recorded_digest": recorded,
                 "tiles_per_pass": len(plan.tiles)},
        "attempted": tiles_done, "failed": 0, "mismatches": mismatches,
        "layers": None, "tracer": None,
    }
    if trace:
        result["layers"], result["tracer"] = _traced(
            pred, slide, plan, seconds, out, walls, ops)
    return result


def _traced(pred, slide, plan, seconds: float, out: Path, untraced: list,
            ops: tuple):
    from repro.obs import Tracer
    tracer = Tracer(profile_kernels=True)
    probe = Probe(tracer)
    pred.tracer = tracer
    _wrap_layers(probe, pred)
    stats0 = dict(pred.stats)
    res = _measure(pred, slide, plan, seconds, out, tracer, probe)
    probe.restore()
    pred.tracer = None
    shutil.rmtree(res["last"].root, ignore_errors=True)
    units = len(res["latencies"])
    wall = sum(res["walls"])
    st = probe.self_time
    real = pred.stats["real_tokens"] - stats0["real_tokens"]
    padded = pred.stats["padded_tokens"] - stats0["padded_tokens"]
    tokens = probe.tokens_per_image()
    layers = layer_metrics(probe, tracer, units, ops)
    layers.update({
        "pipeline.tokens_per_image": tokens,
        "pipeline.token_reduction": (TILE // MODEL["patch_size"]) ** 2
        / tokens if tokens else 0.0,
        "scheduler.pad_ratio": real / padded if padded else 0.0,
        "stream.read_s": st["stream.read"] / units,
        "stream.sink_write_s": st["stream.sink_write"] / units,
        "stream.class_map_s": st["stream.class_map"] / units,
        "trace.coverage": coverage(probe, tracer, wall),
        "trace.overhead": median(res["walls"]) / median(untraced),
    })
    return layers, tracer


def _record(first: int, last: int) -> None:
    """Write the sink digest of seeds ``first..last`` into spec.json."""
    import sys
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from repro.stream import plan_scene
    spec_path = here / "spec.json"
    spec = json.loads(spec_path.read_text())
    digests = spec["workloads"]["wsi_stream"]["digests"]
    pred = _setup()
    out = here / "out"
    for seed in range(first, last + 1):
        slide = generate(seed)
        plan = plan_scene(slide.shape, tile=TILE, max_len=MODEL["max_len"])
        p = _Pass(pred, slide, plan, out / "record")
        p.run()
        digests[f"{RES}/{seed}"] = p.close()
        print(seed, digests[f"{RES}/{seed}"], flush=True)
        del slide
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", nargs=2, type=int, metavar=("FIRST", "LAST"),
                    required=True)
    a = ap.parse_args()
    _record(*a.record)
