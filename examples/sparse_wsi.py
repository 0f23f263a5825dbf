"""Background short-circuit demo: per-tile sparsity stats on a WSI stream.

The quadtree already measured how much detail every patch carries (the
Eq. 6 edge mass that decided not to split it). ``repro.sparse`` uses that
signal at predict time: provably flat tokens seen before route around
the transformer to a digest-keyed logits table, and a sequence takes the
short-circuit only when that moves it to a smaller length bucket. It is
lossy: a table row comes from another position and context.

This demo streams the same virtual slide twice — dense, then with the
short-circuit enabled — and prints, per macro-tile, what the runtime did
(plan, tokens removed from the forward, table seeds) plus the end-to-end
speedup and the dense-vs-sparse class-map agreement.

Run:  PYTHONPATH=src python examples/sparse_wsi.py
"""

import time

import numpy as np

from repro.models import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.sparse import SparsityConfig
from repro.stream import (MemorySink, StreamingRunner, VirtualWSISource,
                          plan_scene)

RES, TILE = 2048, 512           # 16 macro-tiles; raise RES for real scale


def make_predictor(sparsity=None):
    # A serving-grade model so the transformer forward, not preprocessing,
    # dominates per-tile cost — the regime the fast path targets. (With a
    # small model the quadtree + tile synthesis dominate and Amdahl caps
    # any forward-side saving.)
    model = ViTSegmenter(patch_size=4, channels=1, dim=256, depth=8, heads=4,
                         max_len=1024, rng=np.random.default_rng(0)).eval()
    pipe = PatchPipeline(patch_size=4, split_value=16.0, channels=1,
                         cache_items=4)
    return Predictor(model, pipe, max_batch=4, bucket=32, sparsity=sparsity)


def main():
    source = VirtualWSISource(RES, seed=0, organ=2, tile=TILE)
    plan = plan_scene(source.shape, tile=TILE, order="hilbert",
                      max_len=1024)

    print(f"scene {RES}x{RES}, {len(plan.tiles)} macro-tiles of {TILE}²\n")

    # -- pass 1: dense reference ---------------------------------------
    dense_sink = MemorySink()
    dense = StreamingRunner(make_predictor()).run(source, plan, dense_sink)
    print(f"dense : {dense.seconds:6.2f}s "
          f"({RES * RES / dense.seconds / 1e6:.2f} Mpx/s)")

    # -- pass 2: short-circuit enabled ---------------------------------
    predictor = make_predictor(SparsityConfig())
    rt = predictor.sparsity
    sparse_sink = MemorySink()

    print("\nper-tile sparsity decisions:")
    header = f"{'tile':<22}{'plan':<14}{'tokens':>7}{'removed':>9}{'seeds':>8}"
    print(header + "\n" + "-" * len(header))
    t_total = 0.0
    for tile in plan.tiles:
        seeds_before = rt.stats["table_seeds"]
        t0 = time.perf_counter()
        region = source.read_region(tile.origin, tile.size)
        node = predictor.scheduler.tile_node(region, "image")
        predictor.scheduler.drain(node.children)
        t_total += time.perf_counter() - t0
        sparse_sink.write(tile, predictor.scheduler.reduce_tile(node))
        d = rt.stats["last_decision"]
        print(f"{tile.name:<22}{d['plan']:<14}"
              f"{d['n_tokens']:>7}{d['n_removed']:>9}"
              f"{rt.stats['table_seeds'] - seeds_before:>8}")

    print(f"\nsparse: {t_total:6.2f}s "
          f"({RES * RES / t_total / 1e6:.2f} Mpx/s)  "
          f"-> {dense.seconds / t_total:.2f}x speedup")

    # -- quality: dense vs sparse class maps ---------------------------
    agree = np.mean([
        float((dense_sink.read(t) == sparse_sink.read(t)).mean())
        for t in plan.tiles])
    s = rt.stats
    print(f"\nclass-map agreement vs dense: {agree:.2%}")
    removed = s["tokens_skipped"] + s["tokens_merged"]
    print(f"tokens: {s['tokens_total']} total, {removed} removed from the "
          f"forward ({removed / max(s['tokens_total'], 1):.0%}: "
          f"{s['tokens_skipped']} table-served, {s['tokens_merged']} deduped)")
    print(f"background table: {s['table_seeds']} seeded, "
          f"{s['table_hits']} hits")
    print(f"plans: {s['plans']}")


if __name__ == "__main__":
    main()
