"""Serving demo: trace -> compile -> micro-batched Predictor.

Shows the compiled inference runtime end to end:
1. compile a ViTSegmenter forward once (trace -> plan with fused kernels
   and liveness-planned buffers) and verify it is bit-identical to the
   eager ``no_grad`` forward,
2. serve a stream of variable-length APF sequences through the
   ``Predictor`` — the one inference core (length bucketing, micro-batch
   formation, per-signature plan cache, vectorized stitch) that the
   async engine, the fleet router and the streaming runner pump too,
3. compare serving throughput against the pre-runtime per-image eager
   path, and run the BTCV-style slice-volume protocol.

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

import time

import numpy as np

from repro import nn, runtime
from repro.data import SyntheticPAIP
from repro.models import ViTSegmenter
from repro.patching import AdaptivePatcher
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.train.tasks import prepare_image

RES, N_IMAGES, EPOCHS, SPLIT = 256, 8, 3, 4.0


def main():
    ds = SyntheticPAIP(RES, N_IMAGES)
    imgs = [ds[i].image for i in range(N_IMAGES)]
    model = ViTSegmenter(patch_size=4, channels=1, dim=64, depth=4, heads=8,
                         max_len=1024, rng=np.random.default_rng(0))
    model.eval()
    pipe = PatchPipeline(patch_size=4, split_value=SPLIT, cache_items=64,
                         channels=1)

    # -- 1. one compiled plan, bit-identical to eager --------------------
    seqs = pipe.process(imgs[:4], keys=[0, 1, 2, 3])
    length = max(len(s) for s in seqs)
    fitted = [pipe.patcher.fit_length(s, length) for s in seqs]
    from repro.models.embedding import collate_sequences
    tokens, coords, valid = collate_sequences(fitted)
    cm = runtime.compile_model(model, tokens, coords, valid)
    with nn.no_grad():
        eager = model.forward(tokens, coords, valid).data
    compiled = cm(tokens, coords, valid)
    print(f"compiled plan: {cm.plan.stats}")
    print(f"bit-identical to eager forward: {np.array_equal(eager, compiled)}")

    # -- 2. micro-batched serving (a synchronous drain of the work graph:
    #       the predictor buckets, batches, executes, stitches) ----------
    server = Predictor(model, pipe, max_batch=8, bucket=64)
    server.predict_batch(imgs, keys=list(range(N_IMAGES)))   # warm plans
    t0 = time.perf_counter()
    for epoch in range(EPOCHS):
        maps = server.predict_batch(imgs, keys=list(range(N_IMAGES)))
    t_served = time.perf_counter() - t0
    n = EPOCHS * N_IMAGES
    print(f"served {n} predictions in {t_served:.2f}s "
          f"({n / t_served:.1f} img/s); stats: {server.stats}")

    # -- 3. the pre-runtime path: per-image eager predict ----------------
    ref = AdaptivePatcher(pipe.config)
    t0 = time.perf_counter()
    for _ in range(EPOCHS):
        for im in imgs:
            seq = ref.extract_natural(prepare_image(im, 1).transpose(1, 2, 0))
            model.predict_mask(seq)
    t_eager = time.perf_counter() - t0
    print(f"eager per-image path: {t_eager:.2f}s ({n / t_eager:.1f} img/s) "
          f"-> serving speedup {t_eager / t_served:.2f}x")
    print(f"probability map shape: {maps[0].shape}")

    # -- 4. BTCV protocol: slice a volume through the 2-D server ---------
    volume = np.stack([prepare_image(im, 1)[0] for im in imgs[:6]])
    classes = server.predict_volume(volume)
    print(f"slice-volume protocol: {volume.shape} -> {classes.shape} "
          f"(classes {np.unique(classes)})")


if __name__ == "__main__":
    main()
