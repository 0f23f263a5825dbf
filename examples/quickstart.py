#!/usr/bin/env python
"""Quickstart: adaptive patching in five minutes.

Generates one synthetic pathology image, runs the Adaptive Patch Framework
(paper Fig. 1 pipeline), shows the sequence reduction, trains a small ViT
segmenter on APF tokens, and prints the predicted mask.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import nn
from repro.data import generate_wsi
from repro.experiments import ascii_mask
from repro.metrics import dice_score
from repro.models import ViTSegmenter
from repro.patching import AdaptivePatcher, UniformPatcher, patchify_labels


def main() -> None:
    # --- 1. data -----------------------------------------------------------
    sample = generate_wsi(resolution=64, seed=0)
    gray = sample.image.mean(axis=2)
    print(f"image {gray.shape}, lesion covers {sample.mask.mean():.1%}")

    # --- 2. adaptive patching (the paper's contribution) --------------------
    patcher = AdaptivePatcher(patch_size=4, split_value=2.0)
    seq = patcher(gray)
    uniform = UniformPatcher(4)(gray)
    print(f"uniform patches : {len(uniform)}")
    print(f"adaptive patches: {len(seq)}  "
          f"({len(uniform) / len(seq):.1f}x sequence reduction, "
          f"{(len(uniform) / len(seq)) ** 2:.0f}x attention reduction)")
    print(f"patch size histogram: "
          f"{dict(zip(*np.unique(seq.sizes, return_counts=True)))}")

    # --- 3. train a ViT segmenter on the adaptive tokens --------------------
    model = ViTSegmenter(patch_size=4, channels=1, dim=32, depth=2, heads=2,
                         max_len=256, rng=np.random.default_rng(1))
    opt = nn.AdamW(model.parameters(), lr=3e-3)
    targets = patchify_labels(sample.mask, seq).reshape(1, len(seq), -1)
    for epoch in range(30):
        opt.zero_grad()
        logits = model.forward_sequences([seq])
        loss = nn.combined_bce_dice(logits, targets)
        loss.backward()
        opt.step()
        if epoch % 10 == 9:
            print(f"epoch {epoch + 1:2d}  loss {float(loss.data):.4f}")

    # --- 4. reconstruct the full-resolution prediction ----------------------
    probs = model.predict_mask(seq)[0]
    print(f"dice vs ground truth: {dice_score(probs, sample.mask):.1f}%")
    print("\nground truth            prediction")
    gt_lines = ascii_mask(sample.mask, width=24).splitlines()
    pr_lines = ascii_mask(probs > 0.5, width=24).splitlines()
    for a, b in zip(gt_lines, pr_lines):
        print(f"{a}  {b}")


if __name__ == "__main__":
    main()
