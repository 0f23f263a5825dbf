"""Background short-circuit benchmark + CI regression gate.

Pins the three contracts of ``repro.sparse`` on a serving-grade model:

* **Exactness** — dense-vs-sparse *digest equivalence*: with sparsity
  attached in ``mode="dense"``, outputs are byte-identical to a
  predictor without the subsystem.
* **Decisions** — the runtime runs all-detail content dense and
  short-circuits background-heavy content, and logs every decision in
  ``stats["sparsity"]``.
* **Speed** — a 4K² virtual-WSI stream segments ≥ ``SPEEDUP_FLOOR``x
  faster with the short-circuit than dense, at bounded class-map
  disagreement. Each arm times only pipeline → model → stitch → sink:
  the scene is synthesized once into memory (an ``ArraySource`` both
  arms stream) and every plan of the bucket ladder is compiled before
  the timed run, so neither scene synthesis nor plan compiles dilute
  the ratio. The gate is a same-host ratio (host-speed-independent);
  the committed baseline additionally applies the standard >2x rule to
  absolute throughput.

Artifacts: ``BENCH_sparsity.json`` vs ``BENCH_sparsity_baseline.json``.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models import ViTSegmenter
from repro.perf import write_json_atomic
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.sparse import SparsityConfig
from repro.stream import (ArraySource, NpyDirectorySink, StreamingRunner,
                          VirtualWSISource, plan_scene)

RES = 4096                       # mini-WSI: 16 macro-tiles of 1024²
TILE = 1024
SPLIT = 16.0
MODEL = dict(patch_size=4, channels=1, dim=256, depth=8, heads=4,
             max_len=1024)
BUCKET = 64
MAX_BATCH = 4

SPEEDUP_FLOOR = 1.2              #: dense/sparse wall-clock ratio, same host
AGREEMENT_FLOOR = 0.90           #: dense-vs-sparse class-map agreement
N_EQUIVALENCE_IMAGES = 3

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_sparsity.json"
BASELINE_PATH = HERE / "BENCH_sparsity_baseline.json"


def _digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.shape).encode())
    h.update(a.dtype.str.encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _predictor(sparsity=None, bucket=BUCKET, **model_overrides):
    cfg = dict(MODEL)
    cfg.update(model_overrides)
    model = ViTSegmenter(rng=np.random.default_rng(0), **cfg).eval()
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=4)
    return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=bucket,
                     sparsity=sparsity)


def _corner_image(z=256, seed=0):
    img = np.full((z, z), 0.25)
    img[:32, :32] = np.random.default_rng(seed).random((32, 32))
    return img


@pytest.mark.bench
def test_sparsity_bench_and_regression_gate(tmp_path):
    wall_t0 = time.perf_counter()
    result = {"environment": {"cpus": os.cpu_count() or 1,
                              "machine": platform.machine()},
              "workload": {"resolution": RES, "tile": TILE, "split": SPLIT,
                           "bucket": BUCKET, "max_batch": MAX_BATCH,
                           **MODEL}}

    # ------------------------------------------------------------------
    # Digest equivalence: dense mode is byte-identical to no sparsity
    # ------------------------------------------------------------------
    source = VirtualWSISource(RES, seed=0, organ=2, tile=TILE)
    tiles = [source.read_region((0, i * TILE), (TILE, TILE))
             for i in range(N_EQUIVALENCE_IMAGES)]
    base = _predictor()
    forced_dense = _predictor(SparsityConfig(mode="dense"))
    equivalence = []
    for i, img in enumerate(tiles):
        a = _digest(base.predict_image(img))
        b = _digest(forced_dense.predict_image(img))
        equivalence.append({"tile": i, "dense": a, "sparse_dense_plan": b,
                            "equal": a == b})
    result["equivalence"] = {"dense_plan": equivalence}

    # ------------------------------------------------------------------
    # Decisions (small model so the section stays cheap)
    # ------------------------------------------------------------------
    # A fine bucket (4) makes any token reduction visible as a cheaper
    # compiled signature, so the decisions depend only on content.
    small = dict(dim=32, depth=2, heads=4)
    detail_pred = _predictor(SparsityConfig(mode="auto"), bucket=4, **small)
    detail_img = np.random.default_rng(4).random((32, 32))
    detail_pred.predict_image(detail_img)
    detail_decision = detail_pred.stats["sparsity"]["last_decision"]

    bg_pred = _predictor(SparsityConfig(mode="auto"), bucket=4, **small)
    bg_pred.predict_image(_corner_image())
    bg_decision = bg_pred.stats["sparsity"]["last_decision"]
    result["decisions"] = {"all_detail": detail_decision,
                           "background_heavy": bg_decision}

    # ------------------------------------------------------------------
    # Headline: 4K² mini-WSI stream, dense vs short-circuit
    # ------------------------------------------------------------------
    # Untimed set-up: synthesize the scene once and compile both arms'
    # plans, so each timed run is pipeline -> model -> stitch -> sink.
    scene = ArraySource(source.read_region((0, 0), (RES, RES)))
    plan = plan_scene(scene.shape, tile=TILE, order="hilbert",
                      max_len=MODEL["max_len"])
    dense = _predictor()
    sparse = _predictor(SparsityConfig(mode="auto"))
    for p in (dense, sparse):
        p.warmup(lengths=range(BUCKET, MODEL["max_len"] + 1, BUCKET))
    dense_sink = NpyDirectorySink(tmp_path / "dense", dtype=np.uint8)
    dense_rep = StreamingRunner(dense).run(scene, plan, dense_sink)
    sparse_sink = NpyDirectorySink(tmp_path / "sparse", dtype=np.uint8)
    sparse_rep = StreamingRunner(sparse).run(scene, plan, sparse_sink)
    px = RES * RES
    agreements = [float((dense_sink.read(t) == sparse_sink.read(t)).mean())
                  for t in plan.tiles]
    result["headline"] = {
        "dense_seconds": round(dense_rep.seconds, 3),
        "sparse_seconds": round(sparse_rep.seconds, 3),
        "dense_pixels_per_second": round(px / dense_rep.seconds, 1),
        "sparse_pixels_per_second": round(px / sparse_rep.seconds, 1),
        "speedup": round(dense_rep.seconds / sparse_rep.seconds, 3),
        "min_agreement": round(min(agreements), 4),
        "mean_agreement": round(float(np.mean(agreements)), 4),
        "counters": sparse_rep.sparsity,
    }

    result["real_seconds"] = round(time.perf_counter() - wall_t0, 3)
    write_json_atomic(RESULT_PATH, result)
    print("\n" + json.dumps(result, indent=2))

    # -- acceptance gates ---------------------------------------------
    for row in result["equivalence"]["dense_plan"]:
        assert row["equal"], (
            f"dense-plan output diverged from no-sparsity on tile "
            f"{row['tile']} — the exact mode is not exact")

    assert result["decisions"]["all_detail"]["plan"] == "dense"
    assert result["decisions"]["background_heavy"]["plan"] == "shortcircuit"

    head = result["headline"]
    assert head["speedup"] >= SPEEDUP_FLOOR, (
        f"short-circuit speedup {head['speedup']}x below the "
        f"{SPEEDUP_FLOOR}x floor on the mini-WSI")
    assert head["counters"]["plans_shortcircuit"] > 0
    assert head["counters"]["tokens_skipped"] > 0
    assert head["min_agreement"] >= AGREEMENT_FLOOR

    # -- regression gate vs committed baseline (>2x rule) ---------------
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["headline"]["sparse_pixels_per_second"] / 2.0
        assert head["sparse_pixels_per_second"] >= floor, (
            f"sparse throughput regressed >2x: "
            f"{head['sparse_pixels_per_second']} px/s vs baseline "
            f"{baseline['headline']['sparse_pixels_per_second']}")
        ratio_floor = baseline["headline"]["speedup"] / 2.0
        assert head["speedup"] >= ratio_floor, (
            f"sparsity speedup regressed >2x: {head['speedup']}x vs "
            f"baseline {baseline['headline']['speedup']}x")
