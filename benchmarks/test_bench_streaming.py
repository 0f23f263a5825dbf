"""Out-of-core streaming benchmark + CI regression gate (ISSUE 5).

Proves the headline claim of the streaming subsystem on real hardware: a
**16K² virtual whole-slide image** (6.4 GB materialized — more than this
CI class has) segments end-to-end through the compiled serving stack with

* peak traced memory bounded by a **few macro-tile working sets** (the
  planner's per-tile estimate; gate at ``MEM_BUDGET_TILES`` multiples) and
  a tiny fraction of the scene,
* streamed class maps **bit-identical** to ``Predictor.predict_image``
  run on the same macro-tiles with a fresh predictor (sampled tiles),
* a **killed-and-resumed** run producing byte-identical artifacts to an
  uninterrupted one (4K² scene so the double run stays cheap),
* CT **Z-slab** streaming matching the per-slab slice protocol exactly.

Memory and identity gates are deterministic (tracemalloc counts bytes,
not time). The throughput floor is the usual >2x-regression rule against
the committed baseline, with slack for host drift.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import generate_ct_volume
from repro.models import ViTSegmenter
from repro.perf import peak_rss_bytes, write_json_atomic
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.serve.predictor import class_map
from repro.stream import (ArraySource, MemorySink, NpyDirectorySink,
                          StreamingRunner, VirtualWSISource, plan_scene,
                          plan_volume)

RES = 16384                     # headline scene: 16K² (>= the issue's floor)
TILE = 1024
RESUME_RES = 4096
SPLIT = 16.0
MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=1024)
BUCKET = 256
MAX_BATCH = 4

#: Peak traced memory must stay under this many planner working sets —
#: "a few macro-tiles", asserted (measured ~2.0x: one tile in flight plus
#: compiled-plan buffer pools and preprocessing transients).
MEM_BUDGET_TILES = 3.0
#: ... and under this fraction of materializing the scene (measured ~3.4%).
MEM_SCENE_FRACTION = 0.06
#: Whole-process peak RSS ceiling, as a scene fraction (measured ~5%):
#: coarser than the traced gate (includes interpreter + libraries +
#: allocator slack) but asserts the out-of-core claim at the OS level.
MEM_SCENE_FRACTION_RSS = 0.12

N_IDENTITY_TILES = 10           # sampled bit-identity checks (deterministic)

VOL_SLICES, VOL_RES, VOL_SLAB = 24, 256, 8

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_streaming.json"
BASELINE_PATH = HERE / "BENCH_streaming_baseline.json"


def _make_predictor():
    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=2)
    return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)


@pytest.mark.bench
def test_streaming_wsi_and_regression_gate(tmp_path):
    wall_t0 = time.perf_counter()
    result = {"environment": {"cpus": os.cpu_count() or 1,
                              "machine": platform.machine()},
              "workload": {"resolution": RES, "tile": TILE, "split": SPLIT,
                           "bucket": BUCKET, "max_batch": MAX_BATCH, **MODEL}}

    # ------------------------------------------------------------------
    # Headline: 16K² virtual WSI, read-ahead, memory-tracked
    # ------------------------------------------------------------------
    source = VirtualWSISource(RES, seed=0, organ=2, tile=TILE)
    plan = plan_scene(source.shape, tile=TILE, max_len=MODEL["max_len"])
    sink = NpyDirectorySink(tmp_path / "wsi", dtype=np.uint8)
    runner = StreamingRunner(_make_predictor(), track_memory=True)
    report = runner.run(source, plan, sink)

    ws = plan.working_set_bytes()
    px = RES * RES
    result["plan"] = plan.describe()
    result["headline"] = {
        **report.to_dict(),
        "tile_seconds": round(report.seconds / max(report.tiles_run, 1), 4),
        "pixels_per_second": round(px / report.seconds, 1),
        "peak_over_working_set": round(report.peak_traced_bytes / ws, 3),
        "peak_over_scene": round(report.peak_traced_bytes / plan.scene_bytes, 5),
        "peak_rss_bytes": peak_rss_bytes(),
    }

    # ------------------------------------------------------------------
    # Bit-identity: streamed tiles == fresh per-tile predict_image
    # ------------------------------------------------------------------
    reference = _make_predictor()
    step = max(len(plan.tiles) // N_IDENTITY_TILES, 1)
    checked = 0
    for tile in plan.tiles[::step][:N_IDENTITY_TILES]:
        region = source.read_region(tile.origin, tile.size)
        expected = class_map(reference.predict_image(region))
        np.testing.assert_array_equal(sink.read(tile), expected,
                                      err_msg=f"streamed {tile.name} diverged")
        checked += 1
    result["bit_identity"] = {"tiles_checked": checked,
                              "tiles_total": len(plan.tiles)}

    # ------------------------------------------------------------------
    # Checkpoint/resume: killed run resumes byte-identical (4K² scene)
    # ------------------------------------------------------------------
    rsource = VirtualWSISource(RESUME_RES, seed=1, organ=4, tile=TILE)
    rplan = plan_scene(rsource.shape, tile=TILE, max_len=MODEL["max_len"])
    straight = NpyDirectorySink(tmp_path / "straight", dtype=np.uint8)
    StreamingRunner(_make_predictor()).run(rsource, rplan, straight)

    class _Killed(Exception):
        pass

    class _DieAfter:
        def __init__(self, inner, n):
            self.inner, self.left = inner, n

        def completed(self, p):
            return self.inner.completed(p)

        def write(self, t, arr):
            if self.left == 0:
                raise _Killed
            self.inner.write(t, arr)
            self.left -= 1

    resumed = NpyDirectorySink(tmp_path / "resumed", dtype=np.uint8)
    kill_after = len(rplan.tiles) // 2
    with pytest.raises(_Killed):
        StreamingRunner(_make_predictor()).run(
            rsource, rplan, _DieAfter(resumed, kill_after))
    resume_report = StreamingRunner(_make_predictor()).run(rsource, rplan,
                                                           resumed)
    result["resume"] = {
        "tiles": len(rplan.tiles), "killed_after": kill_after,
        "resumed_skipped": resume_report.tiles_skipped,
        "resumed_ran": resume_report.tiles_run,
        "digest_straight": straight.digest(rplan),
        "digest_resumed": resumed.digest(rplan),
    }

    # ------------------------------------------------------------------
    # CT Z-slabs through the Predictor (read-ahead, bit-identical slabs)
    # ------------------------------------------------------------------
    vol = generate_ct_volume(VOL_RES, VOL_SLICES, seed=0).volume
    vplan = plan_volume(vol.shape, slab=VOL_SLAB, max_len=MODEL["max_len"])
    vref = _make_predictor()
    expected_slabs = {
        t.name: np.stack(vref.predict_class_slices(
            [vol[i] for i in range(t.origin[0], t.origin[0] + t.size[0])]))
        for t in vplan.tiles}
    vsink = MemorySink()
    vt0 = time.perf_counter()
    vreport = StreamingRunner(_make_predictor(), max_inflight=2).run(
        ArraySource(vol, kind="volume"), vplan, vsink)
    v_seconds = time.perf_counter() - vt0
    for t in vplan.tiles:
        np.testing.assert_array_equal(vsink.read(t), expected_slabs[t.name],
                                      err_msg=f"slab {t.name} diverged")
    result["volume_slabs"] = {
        **vreport.to_dict(),
        "slices": VOL_SLICES, "slab": VOL_SLAB, "resolution": VOL_RES,
        "slices_per_second": round(VOL_SLICES / v_seconds, 2),
    }

    result["real_seconds"] = round(time.perf_counter() - wall_t0, 3)
    write_json_atomic(RESULT_PATH, result)
    print("\n" + json.dumps(result, indent=2))

    # -- acceptance gates (ISSUE 5) ------------------------------------
    head = result["headline"]
    assert head["tiles_run"] == len(plan.tiles), "headline scene incomplete"
    assert head["peak_traced_bytes"] <= MEM_BUDGET_TILES * ws, (
        f"peak memory {head['peak_traced_bytes'] / 1e6:.0f} MB exceeds "
        f"{MEM_BUDGET_TILES}x the {ws / 1e6:.0f} MB macro-tile working set")
    assert head["peak_traced_bytes"] <= MEM_SCENE_FRACTION * plan.scene_bytes, (
        f"peak memory is {head['peak_over_scene']:.1%} of the scene — "
        "not meaningfully out-of-core")
    if head["peak_rss_bytes"] is not None:
        assert head["peak_rss_bytes"] <= MEM_SCENE_FRACTION_RSS * \
            plan.scene_bytes, (
            f"whole-process peak RSS {head['peak_rss_bytes'] / 1e6:.0f} MB "
            f"exceeds {MEM_SCENE_FRACTION_RSS:.0%} of the scene")
    assert result["resume"]["digest_resumed"] == \
        result["resume"]["digest_straight"], \
        "killed-and-resumed output differs from the uninterrupted run"
    assert result["resume"]["resumed_skipped"] == kill_after

    # -- regression gate vs committed baseline (>2x slowdown fails) ----
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["headline"]["pixels_per_second"] / 2.0
        assert head["pixels_per_second"] >= floor, (
            f"streaming throughput regressed >2x: {head['pixels_per_second']} "
            f"px/s vs baseline {baseline['headline']['pixels_per_second']}")
        mem_ceiling = baseline["headline"]["peak_traced_bytes"] * 2.0
        assert head["peak_traced_bytes"] <= mem_ceiling, (
            f"peak memory regressed >2x: {head['peak_traced_bytes']} vs "
            f"baseline {baseline['headline']['peak_traced_bytes']}")
