"""Golden request-lifecycle trace across commits.

One seeded simulated-clock fleet scenario ends a request every way the
serving stack can: done, a collapsed twin riding a primary, a result-cache
hit, a cancel, a rejected volume (with a twin rolled back), a failed
batch, and a replica kill whose backlog a survivor adopts. The sha256 of
its canonical Chrome trace is pinned, so a reordered, added, dropped or
re-argued event is caught between commits, not only between two runs of
one commit (which ``test_trace_determinism`` covers).

The digest was recorded from the engine as it stood before its request
endings were folded into one path; it must only change on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data import SyntheticPAIP
from repro.models.vit import ViTSegmenter
from repro.obs import Tracer, chrome_trace, validate_trace
from repro.pipeline import PatchPipeline
from repro.serve import (EngineOverloaded, Predictor, ServiceModel, SimClock,
                         build_fleet)
from repro.train.tasks import prepare_image

GOLDEN_SHA256 = ("d5615ecb7dd74f322a3f4eab65aaa598"
                 "a98014f4b8da0f818c50ad80a1237a8c")


def _factory(model):
    def factory(rank):
        pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                             cache_items=32)
        return Predictor(model, pipe, max_batch=4, bucket=16)
    return factory


def _pending_replica(router):
    (replica,) = [r for r in router.replicas if r.engine.pending]
    return replica


def _scenario():
    """Run every request ending once; returns (tracer, futures by role)."""
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(7))
    clock = SimClock()
    tracer = Tracer(clock=clock.now)
    router = build_fleet(_factory(model), replicas=2, clock=clock.now,
                         tracer=tracer, service_model=ServiceModel(),
                         flush_deadline=0.02, max_queue=4,
                         result_cache_items=16)
    ds = SyntheticPAIP(64, 12)
    imgs = [ds[i].image for i in range(6)]
    slices = [prepare_image(ds[i].image, 1)[0] for i in range(6, 12)]
    futs = {}

    # done, a collapsed twin, and a cancel
    futs["done"] = router.submit(imgs[0])
    futs["twin"] = router.submit(imgs[0])
    futs["other"] = router.submit(imgs[1])
    futs["cancelled"] = router.submit(imgs[2], lane="bulk")
    assert router.cancel(futs["cancelled"])
    clock.advance(0.05)
    router.drain_all()

    # a result-cache hit
    clock.advance(0.01)
    futs["hit"] = router.submit(imgs[0])

    # a rejected volume: 6 fresh slices + a twin overflow every replica,
    # while a queued primary of slice 0 (the twin's) survives the rollback
    clock.advance(0.01)
    futs["primary"] = router.submit(slices[0])
    clock.advance(0.01)
    with pytest.raises(EngineOverloaded):
        router.submit_volume(np.stack([slices[0]] + slices))

    # a failed batch: that queued primary's execution raises
    clock.advance(0.05)
    engine = _pending_replica(router).engine
    real = engine.predictor.predict_sequences

    def fail_once(seqs):
        engine.predictor.predict_sequences = real
        raise RuntimeError("injected execute failure")

    engine.predictor.predict_sequences = fail_once
    with pytest.raises(RuntimeError):
        engine.step(force=True)

    # a kill mid-backlog: a survivor adopts the queue, twin included
    clock.advance(0.01)
    futs["moved"] = router.submit(imgs[3])
    futs["moved_twin"] = router.submit(imgs[3])
    assert router.kill(_pending_replica(router).rank) == 1
    clock.advance(0.05)
    router.drain_all()
    return tracer, futs


def test_lifecycle_trace_matches_golden():
    tracer, futs = _scenario()
    trace = chrome_trace(tracer)
    assert validate_trace(trace) == []
    outcomes = {e["args"]["outcome"] for e in trace["traceEvents"]
                if e["ph"] == "e" and e.get("cat") == "request"}
    assert outcomes == {"done", "cache_hit", "failed", "cancelled"}
    kinds = {e["args"]["kind"] for e in trace["traceEvents"]
             if e["ph"] == "b" and e.get("cat") == "request"}
    assert kinds == {"fresh", "collapsed", "cache_hit"}
    names = {e["name"] for e in trace["traceEvents"]}
    assert {"req.cancel", "req.reject", "req.evict", "req.adopt",
            "kill", "reroute"} <= names
    assert futs["cancelled"].cancelled()
    assert isinstance(futs["primary"].exception(timeout=0), RuntimeError)
    for role in ("done", "twin", "other", "hit", "moved", "moved_twin"):
        assert futs[role].result(timeout=0).shape == (1, 64, 64)
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256
