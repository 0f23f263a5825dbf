"""Cross-front-end bit-identity matrix (ISSUE 7 acceptance).

Identical seeded 2-D and 3-D inputs go through all four front doors —
:class:`Predictor` (synchronous drain), :class:`InferenceEngine` drain
(pump), :class:`FleetRouter` drain (N pumps), and the
:class:`StreamingRunner` (bounded macro-tile feed) — and must produce
digest-identical int64 class maps. All four run through one
:class:`Predictor`, so there is no second implementation of bucketing,
micro-batch formation, plan-cache keying, or stitch scatter left to
drift.
"""

import hashlib

import numpy as np

from repro.data import SyntheticPAIP, generate_ct_volume
from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import FleetRouter, InferenceEngine, Predictor, class_map
from repro.stream import (ArraySource, MemorySink, StreamingRunner,
                          plan_scene, plan_volume)

RES = 64
N_IMAGES = 6


def _digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1)).eval()


def _predictor(model):
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=32)
    return Predictor(model, pipe, max_batch=3, bucket=16)


def _engine(model, **kw):
    # result cache off: every request must ride the full scheduler path
    args = dict(result_cache_items=0, max_queue=64)
    args.update(kw)
    return InferenceEngine(_predictor(model), **args)


def _images(n=N_IMAGES):
    ds = SyntheticPAIP(RES, n)
    return [ds[i].image for i in range(n)]


def _volumes():
    return [generate_ct_volume(32, 5, seed=s).volume for s in (1, 2)]


# -- the four front doors, 2-D --------------------------------------------

def via_predictor(model, images):
    return [class_map(p) for p in _predictor(model).predict_batch(images)]


def via_engine_drain(model, images):
    eng = _engine(model)
    futs = [eng.submit(im) for im in images]
    eng.drain()
    return [class_map(f.result()) for f in futs]


def via_router_drain(model, images):
    router = FleetRouter([_engine(model) for _ in range(3)])
    futs = [router.submit(im) for im in images]
    router.drain_all()
    return [class_map(f.result()) for f in futs]


def via_streaming(model, images):
    runner = StreamingRunner(_predictor(model))
    out = []
    for im in images:
        plan = plan_scene(im.shape, tile=RES, max_len=256)
        sink = MemorySink()
        runner.run(ArraySource(im), plan, sink)
        out.append(sink.assemble(plan))
    return out


FRONT_ENDS_2D = {
    "predictor": via_predictor,
    "engine_drain": via_engine_drain,
    "router_drain": via_router_drain,
    "streaming": via_streaming,
}


# -- the four front doors, 3-D --------------------------------------------

def via_predictor_vol(model, vols):
    p = _predictor(model)
    return [p.predict_volume(v) for v in vols]


def via_engine_drain_vol(model, vols):
    eng = _engine(model)
    futs = [eng.submit_volume(v) for v in vols]
    eng.drain()
    return [f.result() for f in futs]


def via_router_drain_vol(model, vols):
    router = FleetRouter([_engine(model) for _ in range(3)])
    futs = [router.submit_volume(v) for v in vols]
    router.drain_all()
    return [f.result() for f in futs]


def via_streaming_vol(model, vols):
    runner = StreamingRunner(_predictor(model))
    out = []
    for v in vols:
        plan = plan_volume(v.shape, slab=2, max_len=256)
        sink = MemorySink()
        runner.run(ArraySource(v), plan, sink)
        out.append(sink.assemble(plan))
    return out


FRONT_ENDS_3D = {
    "predictor": via_predictor_vol,
    "engine_drain": via_engine_drain_vol,
    "router_drain": via_router_drain_vol,
    "streaming": via_streaming_vol,
}


class TestFrontEndMatrix:
    def test_2d_digest_matrix(self):
        model = _model()
        images = _images()
        table = {name: [_digest(m) for m in fn(model, images)]
                 for name, fn in FRONT_ENDS_2D.items()}
        ref = table["predictor"]
        assert len(set(ref)) > 1          # the seeded inputs genuinely differ
        for name, digests in table.items():
            assert digests == ref, f"{name} diverged from predictor"

    def test_3d_digest_matrix(self):
        model = _model()
        vols = _volumes()
        table = {name: [_digest(m) for m in fn(model, vols)]
                 for name, fn in FRONT_ENDS_3D.items()}
        ref = table["predictor"]
        assert len(set(ref)) == len(vols)
        for name, digests in table.items():
            assert digests == ref, f"{name} diverged from predictor"


class TestPlanCacheUnification:
    """Satellite: same inputs -> same micro-batch signatures everywhere,
    so the per-signature plan cache is shared, never split."""

    def test_predict_batch_and_engine_flush_share_signatures(self):
        model = _model()
        images = _images()
        p1 = _predictor(model)
        p1.predict_batch(images)
        eng = _engine(model)
        for im in images:
            eng.submit(im)
        eng.drain()
        assert p1._plans
        assert set(p1._plans) == set(eng.predictor._plans)

    def test_engine_rides_the_predictor_scheduler(self):
        # the predictor is the engine's only scheduler: the engine keeps
        # no work graph of its own, and its flushes fill the predictor's
        # plan cache and stats
        eng = _engine(_model())
        assert not hasattr(eng, "scheduler")
        images = _images()
        for im in images:
            eng.submit(im)
        eng.drain()
        assert eng.predictor._plans
        assert eng.predictor.stats["images"] == len(images)
        assert eng.stats()["predictor"] == eng.predictor.stats
