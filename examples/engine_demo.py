"""Async inference engine demo: queue -> continuous batcher -> runtime.

Walks the serving front-end end to end:
1. start an ``InferenceEngine`` on the real clock (warmup pre-compiles the
   bucket ladder), serve concurrent client threads via ``submit`` futures,
2. decompose a volume into bulk-lane slice jobs with ``submit_volume``,
3. trip admission control with a tiny queue (``EngineOverloaded`` + the
   retry-after hint),
4. rerun the same workload **deterministically** under the simulated clock
   with the load harness, and compare against the serial
   ``predict_image`` baseline.

Run:  PYTHONPATH=src python examples/engine_demo.py
"""

import json
import threading

import numpy as np

from repro.data import SyntheticPAIP
from repro.models import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import (EngineOverloaded, InferenceEngine, Predictor,
                         ServiceModel, SimClock, merge_traces, poisson_trace,
                         run_load, serial_baseline)
from repro.train.tasks import prepare_image

RES, N_IMAGES, SPLIT = 64, 12, 8.0


def make_predictor(model):
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=64)
    return Predictor(model, pipe, max_batch=8, bucket=32)


def main():
    ds = SyntheticPAIP(RES, N_IMAGES)
    imgs = [ds[i].image for i in range(N_IMAGES)]
    model = ViTSegmenter(patch_size=4, channels=1, dim=32, depth=2, heads=4,
                         max_len=512, rng=np.random.default_rng(0)).eval()

    # -- 1. threaded engine: concurrent clients over one Predictor -------
    engine = InferenceEngine(make_predictor(model), flush_deadline=0.01,
                             max_queue=64, warmup_lengths=(32, 64, 96))
    engine.start()                          # warms plans, spawns the batcher
    results = {}

    def client(i):
        results[i] = engine.submit(imgs[i % N_IMAGES]).result(timeout=60)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = engine.stats()
    print(f"threaded: {len(results)} futures resolved, "
          f"{stats['engine']['batches']} batches "
          f"(mean size {stats['engine']['batch_size']['mean']:.2f}), "
          f"{stats['engine']['cache_hits']} result-cache hits, "
          f"{stats['engine']['collapsed']} collapsed duplicates")

    # -- 2. bulk volume: decomposed into slice jobs, reassembled ---------
    volume = np.stack([prepare_image(im, 1)[0] for im in imgs[:6]])
    classes = engine.submit_volume(volume, lane="bulk").result(timeout=60)
    print(f"volume {volume.shape} -> class map {classes.shape} "
          f"(classes {np.unique(classes)})")
    engine.stop()

    # -- 3. admission control -------------------------------------------
    tiny = InferenceEngine(make_predictor(model), max_queue=2,
                           flush_deadline=60.0)
    tiny.submit(imgs[0])
    tiny.submit(imgs[1])
    try:
        tiny.submit(imgs[2])
    except EngineOverloaded as exc:
        print(f"admission control: {exc} (retry after ~{exc.retry_after:.3f}s)")
    tiny.drain()

    # -- 4. deterministic simulated load vs the serial baseline ----------
    clock = SimClock()
    pred = make_predictor(model)
    sim = InferenceEngine(pred, clock=clock.now, service_model=ServiceModel(),
                          flush_deadline=0.02, max_queue=64,
                          result_cache_items=0)
    trace = merge_traces(*[poisson_trace(12.0, 12, seed=100 + c,
                                         n_items=N_IMAGES)
                           for c in range(8)])
    report = run_load(sim, trace, imgs, clock)
    ordered = sorted(trace, key=lambda a: (a.time, a.lane, a.item))
    lengths = [pred.bucket_length(len(pred.pipeline.process(
                   [imgs[a.item]], [a.item])[0]))
               for a in ordered]
    serial = serial_baseline(trace, lengths, ServiceModel())
    print(f"simulated load (8 clients): engine {report['throughput']:.1f} "
          f"req/s vs serial {serial['throughput']:.1f} req/s "
          f"-> {report['throughput'] / serial['throughput']:.2f}x")
    print("virtual latency: " + json.dumps(
        {k: round(report['latency'][k], 4) for k in ('p50', 'p95', 'p99')}))


if __name__ == "__main__":
    main()
