"""``tile_api``: a tile-serving API over a slide pyramid and a started
InferenceEngine.

Each request asks for one 128² tile ``(level, row, col)`` of the pyramid
(levels 0-1) of a pre-generated 4096² slide. A ``PyramidService`` (FIFO
policy, no prefetch: an API serves what it is asked) resolves it through
the pyramid's pixels and digest, the shared tile cache and the in-flight
join, and submits misses to the engine, which runs a serving-grade model
(dim 256, depth 8). Phase one is an open loop of Poisson arrivals at a
fixed rate, where a fixed share of arrivals repeats a recent tile; the
seed draws arrival times, order and repeats. Phase two is a closed loop
with a fixed number of outstanding fresh requests, which gives the
saturated request rate. The model dominates, so queueing and batching
matter; the pyramid and the service caches sit on every request's path.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as wait_futures
from pathlib import Path

import numpy as np

from common import (CLOCK, Probe, coverage, compare_maps, layer_metrics,
                    percentile, timed_setups, wrap_pipeline)

SLIDE = 4096                  #: 16 independently seeded 1024² tissue fields
TILE = 128
MAX_LEVEL = 1                 #: 1024 + 256 tiles in the catalogue
ORGAN = 2
SLIDE_SEED = 0
CATALOGUE_SEED = 1
MODEL = dict(patch_size=4, channels=1, dim=256, depth=8, heads=4,
             max_len=1024)
SPLIT = 4.0
BUCKET = 64
MAX_BATCH = 8
ENGINE = dict(flush_deadline=0.02, max_queue=64, result_cache_items=256)
SERVICE = dict(policy="fifo", prefetch_tiles=0, cache_items=512)
PYRAMID_CACHE = 128
SESSION = "api"
#: open-loop arrivals per second: about a quarter of the closed loop's
#: saturated rate on a 2-CPU Xeon host (about 49 req/s there). The same
#: seed's p95 moved by a fifth between two runs at 20 req/s and the
#: spread grew with the rate: queueing amplifies the host's speed drift
RATE = 12.0
REPEAT_SHARE = 0.2            #: arrivals that repeat a recent tile
RECENT = 8                    #: ... drawn from the last RECENT fresh ones
OPEN_SHARE = 0.7              #: share of the window in the open loop
#: closed-loop outstanding requests: twice MAX_BATCH, so a full batch
#: waits while one runs
CLIENTS = 16
RATE_GROUP = 25               #: completions per closed-loop rate sample
CLOSED_POOL_PER_S = 100       #: fresh closed-loop tiles per second
SETUP_REPEATS = 3
#: every signature the load can form is compiled before timing, so no
#: plan compiles inside the window: natural lengths of 128² tiles stay
#: under 3 buckets (rare longer ones run alone), batches at most MAX_BATCH
PRIME_LENGTHS = range(BUCKET, 3 * BUCKET + 1, BUCKET)
PRIME_BATCHES = tuple(range(1, MAX_BATCH + 1))
PRIME_LONG = range(4 * BUCKET, 6 * BUCKET + 1, BUCKET)
CHECK = 8


class Inputs:
    """Everything the load sends, generated before any timing."""

    def __init__(self, seed: int, seconds: float):
        from repro.pyramid import PyramidTile
        from repro.stream import VirtualWSISource
        # the served slide is a fixed fixture; the seed draws the requests.
        # float32 halves its memory; the pyramid reads it as float64
        self.slide = VirtualWSISource(SLIDE, seed=SLIDE_SEED,
                                      organ=ORGAN).read_region(
            (0, 0), (SLIDE, SLIDE)).astype(np.float32)
        rng = np.random.default_rng([seed, 0x7A1])
        self.open_seconds = seconds * OPEN_SHARE
        self.closed_seconds = seconds - self.open_seconds
        n_open = max(int(RATE * self.open_seconds), 1)
        self.due = np.cumsum(rng.exponential(1.0 / RATE, n_open))
        # open-loop schedule: the next fresh tile, or a repeat of one of
        # the last RECENT fresh ones
        self.schedule, fresh = [], 0
        for _ in range(n_open):
            if fresh and rng.random() < REPEAT_SHARE:
                lo = max(0, fresh - RECENT)
                self.schedule.append(int(rng.integers(lo, fresh)))
            else:
                self.schedule.append(fresh)
                fresh += 1
        # The API serves a fixed catalogue of tiles (a seed-independent
        # permutation of every tile of every level): the open loop sends
        # its first part in the seed's order, the closed loop walks the
        # rest, so runs differ in arrivals, order and repeats, not in tiles.
        tiles = [PyramidTile(level, ty, tx)
                 for level in range(MAX_LEVEL + 1)
                 for ty in range((SLIDE >> level) // TILE)
                 for tx in range((SLIDE >> level) // TILE)]
        catalogue = [tiles[int(i)] for i in np.random.default_rng(
            CATALOGUE_SEED).permutation(len(tiles))]
        self.open_tiles = [catalogue[int(i)]
                           for i in rng.permutation(fresh)]
        n_closed = int(CLOSED_POOL_PER_S * self.closed_seconds) + CLIENTS
        self.closed_tiles = catalogue[fresh:fresh + n_closed]


def build_pipeline(cache_items: int = 256):
    from repro.pipeline import PatchPipeline
    return PatchPipeline(patch_size=4, split_value=SPLIT, channels=1,
                         cache_items=cache_items)


def build_predictor():
    from repro.models import ViTSegmenter
    from repro.serve import Predictor
    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL).eval()
    pipe = build_pipeline()
    return Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)


def _setup():
    from repro.serve import InferenceEngine
    return InferenceEngine(build_predictor(), **ENGINE).start()


def _request(service, tile):
    """One API call; returns the tile's task (cached, joined or new).

    A new task's completion time is stamped on it; a joined task already
    carries that stamp from the request that submitted it.
    """
    rep = service.request_viewport(SESSION, tile.level,
                                   (tile.ty * TILE, tile.tx * TILE),
                                   (TILE, TILE), now=CLOCK())
    task = rep.tasks[0]
    if rep.submitted:
        task.future.add_done_callback(
            lambda fut, task=task: setattr(task, "done_t", CLOCK()))
    return task


def _open_loop(service, inputs: Inputs) -> dict:
    """Request on schedule from this thread; time each from its due time."""
    requests, lateness = [], []      # (due, returned, task) per arrival
    t0 = CLOCK() + 0.05
    for i, k in enumerate(inputs.schedule):
        due = t0 + inputs.due[i]
        gap = due - CLOCK()
        if gap > 0:
            time.sleep(gap)
        lateness.append(max(CLOCK() - due, 0.0))
        task = _request(service, inputs.open_tiles[k])
        requests.append((due, CLOCK(), task))
    wait_futures({task.future for _, _, task in requests
                  if task.future is not None}, timeout=120)
    return {"requests": requests, "lateness": lateness,
            "wall": CLOCK() - t0}


def _served(task) -> bool:
    """The request got its tile: from the cache or a finished future."""
    if task.cached:
        return True
    fut = task.future
    return fut is not None and fut.done() and fut.exception() is None


def _latencies(open_: dict) -> list:
    """Due time to result, per served open-loop request (a tile is ready no
    earlier than its request returned). Call once the engine has stopped:
    its batcher thread runs the stamping callbacks."""
    return [max(task.done_t, returned) - due
            for due, returned, task in open_["requests"] if _served(task)]


def _closed_loop(service, inputs: Inputs) -> dict:
    """CLIENTS outstanding fresh requests; completions per second, as the
    median rate over groups of RATE_GROUP consecutive completions, so a
    transient host stall moves one group, not the result."""
    pool = iter(inputs.closed_tiles)
    outstanding = []                # one future per request in flight
    sent, rejected, failed = 0, 0, 0
    finished = []
    t0 = CLOCK()
    t_end = t0 + inputs.closed_seconds

    def refill():
        nonlocal sent, rejected
        while len(outstanding) < CLIENTS and CLOCK() < t_end:
            tile = next(pool, None)
            if tile is None:
                return
            task = _request(service, tile)
            sent += 1
            if task.rejected:
                rejected += 1
            elif task.cached:
                finished.append(CLOCK() - t0)
            else:
                outstanding.append(task.future)

    refill()
    while outstanding and CLOCK() < t_end:
        wait_futures(set(outstanding), timeout=t_end - CLOCK(),
                     return_when=FIRST_COMPLETED)
        now = CLOCK()
        for fut in [f for f in outstanding if f.done()]:
            outstanding.remove(fut)
            if fut.exception() is not None:
                failed += 1
            elif now <= t_end:
                finished.append(now - t0)
        refill()
    wall = min(CLOCK(), t_end) - t0
    wait_futures(set(outstanding), timeout=120)
    failed += sum(1 for f in outstanding
                  if not f.done() or f.exception() is not None)
    stamps = np.sort(np.asarray(finished))
    spans = stamps[RATE_GROUP::RATE_GROUP] - stamps[:-RATE_GROUP:RATE_GROUP]
    rates = RATE_GROUP / spans[spans > 0]
    return {"completed": len(finished), "wall": wall,
            "rps": float(np.median(rates)) if len(rates)
            else len(finished) / max(wall, 1e-9),
            "sent": sent, "rejected": rejected, "failed": failed}


def _measure(pred, inputs: Inputs, tracer=None, probe: Probe = None) -> dict:
    """One open-loop phase then one closed-loop phase on a fresh stack: a
    new engine (queue, metrics, result cache), pyramid and service; the
    predictor's compiled plans stay."""
    from repro.pyramid import PyramidService, TilePyramid
    from repro.serve import InferenceEngine
    from repro.stream import ArraySource
    engine = InferenceEngine(pred, tracer=tracer, **ENGINE)
    pyramid = TilePyramid(ArraySource(inputs.slide), tile=TILE,
                          max_level=MAX_LEVEL, cache_tiles=PYRAMID_CACHE)
    service = PyramidService(pyramid, engine, clock=CLOCK, **SERVICE)
    if probe is not None:
        import repro.serve.engine as serve_engine
        probe.wrap(pyramid, "tile_pixels", "pyramid.pixels")
        probe.wrap(pyramid, "digest", "pyramid.digest")
        probe.wrap(service, "request_viewport", "pyramid.request")
        probe.wrap(engine, "submit", "engine.submit")
        probe.wrap(serve_engine, "_digest", "engine.digest")
        wrap_pipeline(probe, pred.pipeline)
    engine.start(warmup=False)
    stats0 = dict(pred.stats)
    try:
        t0 = CLOCK()
        open_ = _open_loop(service, inputs)
        open_lengths = len(probe.lengths) if probe is not None else 0
        closed = _closed_loop(service, inputs)
        wall = CLOCK() - t0
    finally:
        engine.stop()
        if probe is not None:
            probe.restore()
    return {"open": open_, "closed": closed, "wall": wall,
            "pyramid": pyramid, "service": service,
            "stats": engine.stats(), "stats0": stats0,
            "open_lengths": open_lengths}


def _check(pred, res: dict, seed: int) -> int:
    """Seeded sample of tiles the open loop had computed, against an eager
    fresh Predictor on the same pyramid pixels."""
    from repro.serve import Predictor
    from repro.serve.predictor import class_map
    ref = Predictor(pred.model, build_pipeline(cache_items=0), max_batch=1,
                    bucket=BUCKET, compiled=False)
    computed = {}
    for _, _, task in res["open"]["requests"]:
        if task.future is not None and _served(task):
            computed.setdefault(task.tile, task)
    tiles = sorted(computed)
    rng = np.random.default_rng([seed, 0xC4E])
    bad = 0
    for i in rng.choice(len(tiles), min(CHECK, len(tiles)), replace=False):
        task = computed[tiles[int(i)]]
        want = ref.predict_image(res["pyramid"].tile_pixels(task.tile))
        if not compare_maps(task.future.result(), want, class_map):
            bad += 1
    return bad


def run(seed: int, seconds: float, trace: bool, out: Path, spec: dict,
        ops: tuple) -> dict:
    t0 = CLOCK()
    inputs = Inputs(seed, seconds)
    gen_s = CLOCK() - t0
    setup_s, engine, setups = timed_setups(_setup, SETUP_REPEATS,
                                           lambda e: e.stop())
    engine.stop()
    pred = engine.predictor
    t0 = CLOCK()
    pred.warmup(lengths=PRIME_LENGTHS, batch_sizes=PRIME_BATCHES)
    pred.warmup(lengths=PRIME_LONG, batch_sizes=(1, 2))
    prime_s = CLOCK() - t0
    res = _measure(pred, inputs)
    open_, closed = res["open"], res["closed"]
    lat = _latencies(open_)
    n = len(lat)
    rps = closed["rps"]
    attempted = len(inputs.schedule) + closed["sent"]
    failed = len(inputs.schedule) - n + closed["rejected"] + closed["failed"]
    mismatches = _check(pred, res, seed)
    svc = res["service"].stats()
    result = {
        "e2e": {"setup_s": setup_s,
                "mpx_per_s": rps * TILE * TILE / 1e6,
                "latency_p50_s": percentile(lat, 50),
                "latency_p95_s": percentile(lat, 95)},
        "samples": {"setup_s": SETUP_REPEATS,
                    "mpx_per_s": closed["completed"],
                    "latency_p50_s": n, "latency_p95_s": n},
        "info": {"gen_s": gen_s, "prime_s": prime_s, "setup_runs_s": setups,
                 "saturated_rps": rps, "open_requests": len(inputs.schedule),
                 "rate_rps": RATE, "clients": CLIENTS,
                 "lateness_p95_s": percentile(open_["lateness"], 95),
                 "open_wall_s": open_["wall"], "closed_wall_s": closed["wall"],
                 "closed_completed": closed["completed"],
                 "closed_pool": len(inputs.closed_tiles),
                 "batch_size_mean": res["stats"]["engine"]["batch_size"]
                 ["mean"],
                 "plans": pred.stats["plans"],
                 "pyramid": dict(res["pyramid"].stats),
                 "service": svc["service"],
                 "tile_cache_hit_rate": svc["tile_cache"]["hit_rate"]},
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "layers": None, "tracer": None,
    }
    if trace:
        result["layers"], result["tracer"] = _traced(pred, inputs, res, ops)
    return result


def _traced(pred, inputs: Inputs, untraced: dict, ops: tuple):
    from repro.obs import Tracer
    tracer = Tracer(profile_kernels=True)
    probe = Probe(tracer)
    # an empty sequence cache: the traced pass preprocesses what the
    # untraced one did (the compiled plans live on the predictor and stay)
    pred.pipeline = build_pipeline()
    res = _measure(pred, inputs, tracer, probe)
    pred.tracer = None
    open_, closed = res["open"], res["closed"]
    units = len(inputs.schedule) + closed["sent"]
    snap = res["stats"]["engine"]
    submitted = max(snap.get("submitted", 0), 1)
    real = pred.stats["real_tokens"] - res["stats0"]["real_tokens"]
    padded = pred.stats["padded_tokens"] - res["stats0"]["padded_tokens"]
    tokens = probe.tokens_per_image(res["open_lengths"])
    svc = res["service"].stats()
    st = probe.self_time

    def per_request(r):
        return r["wall"] / max(r["completed"], 1)

    layers = layer_metrics(probe, tracer, units, ops)
    layers.update({
        "pipeline.tokens_per_image": tokens,
        "pipeline.token_reduction": (TILE // MODEL["patch_size"]) ** 2
        / tokens if tokens else 0.0,
        "scheduler.pad_ratio": real / padded if padded else 0.0,
        "pyramid.pixels_s": st["pyramid.pixels"] / units,
        "pyramid.downsampled": res["pyramid"].stats["downsampled"] / units,
        "pyramid.digest_s": st["pyramid.digest"] / units,
        "pyramid.tile_cache_hit_ratio": svc["tile_cache"]["hit_rate"],
        "pyramid.join_ratio": svc["service"].get("tile_joined", 0) / units,
        "engine.admit_s": probe.total["engine.submit"] / units,
        "engine.queue_wait_p50_s": snap["queue_wait"]["p50"],
        "engine.queue_wait_p95_s": snap["queue_wait"]["p95"],
        "engine.batch_size_mean": snap["batch_size"]["mean"],
        "engine.result_cache_hit_ratio": snap.get("cache_hits", 0)
        / submitted,
        "engine.collapsed_ratio": snap.get("collapsed", 0) / submitted,
        "engine.rejected": snap.get("rejected", 0) / units,
        "driver.lateness_p95_s": percentile(open_["lateness"], 95),
        "trace.coverage": coverage(probe, tracer, res["wall"]),
        "trace.overhead": per_request(closed)
        / per_request(untraced["closed"]),
    })
    return layers, tracer
