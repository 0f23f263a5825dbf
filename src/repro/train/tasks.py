"""Task adapters: bind (model, patcher, loss) triples behind one interface.

The trainer only needs ``batch_loss`` / ``val_loss`` / ``evaluate``; these
adapters encode how each architecture in the zoo consumes a sample —
token-level supervision for pure ViTs, full-resolution supervision for
decoder models, cross-entropy for classifiers. One UNETR can thereby be
trained with uniform *or* adaptive patching by swapping only the patcher
(Algorithm 1's outer loop).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .. import nn
from ..metrics import dice_score, per_class_dice, top1_accuracy
from ..patching import AdaptivePatcher, PatchSequence

__all__ = ["TokenSegmentationTask", "VolumeSegmentationTask",
           "ImageSegmentationTask", "UNETRTask",
           "SequenceClassificationTask", "ImageClassificationTask",
           "prepare_image"]


def _channel_mean(img: np.ndarray) -> np.ndarray:
    """``img.mean(axis=2, keepdims=True)`` for a float64 (Z, Z, C) image.

    For C < 8 NumPy's sum is sequential in channel order, starting from
    +0.0 (so all-−0.0 channels give +0.0), in every memory layout;
    replaying it as per-channel whole-plane adds gives the same values
    without the slow strided reduction over a short inner axis. From
    C = 8 a contiguous channel axis is summed pairwise, so ``mean`` stays.
    Only a NaN's payload bits can differ: NumPy's loops pick which NaN
    operand to propagate by loop kind.
    """
    c = img.shape[2]
    if not 0 < c < 8:
        return img.mean(axis=2, keepdims=True)
    acc = img[:, :, 0] + 0.0
    for i in range(1, c):
        acc += img[:, :, i]
    acc /= c
    return acc[:, :, None]


def prepare_image(image: np.ndarray, channels: int) -> np.ndarray:
    """Convert a sample image to (C, Z, Z) with the model's channel count."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.shape[2] != channels:
        if channels == 1:
            img = _channel_mean(img)
        elif img.shape[2] == 1:
            img = np.repeat(img, channels, axis=2)
        else:
            raise ValueError(f"cannot adapt {img.shape[2]} channels to {channels}")
    return img.transpose(2, 0, 1)


def _patcher_image(image: np.ndarray, channels: int) -> np.ndarray:
    """(Z, Z[, C]) view fed to the patcher, channel-adapted."""
    return prepare_image(image, channels).transpose(1, 2, 0)


class _SegTaskBase:
    """Shared eval logic: full-resolution dice on predicted probability maps."""

    def __init__(self, model, channels: int):
        self.model = model
        self.channels = channels

    def parameters(self):
        return self.model.parameters()

    def predict_probs(self, sample) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate(self, samples: Sequence) -> float:
        """Mean dice (%) over samples."""
        scores = [dice_score(self.predict_probs(s)[0], s.mask) for s in samples]
        return float(np.mean(scores))


class TokenSegmentationTask(_SegTaskBase):
    """ViTSegmenter supervised at token level (APF-native training path)."""

    def __init__(self, model, patcher, channels: int = 1):
        super().__init__(model, channels)
        self.patcher = patcher

    def _seq_and_targets(self, sample):
        img = _patcher_image(sample.image, self.channels)
        seq = self.patcher(img)
        if hasattr(self.patcher, "patchify_labels"):
            targets = self.patcher.patchify_labels(sample.mask, seq)
        else:
            # Uniform patching: reuse the adaptive label logic via the shared
            # sequence geometry (leaf == grid cell).
            targets = AdaptivePatcher(patch_size=seq.patch_size).patchify_labels(
                sample.mask, seq)
        return seq, targets

    def batch_loss(self, samples: Sequence) -> nn.Tensor:
        if hasattr(samples, "tokens") and hasattr(samples, "sequences"):
            return self._collated_loss(samples)
        seqs, targets = [], []
        for s in samples:
            seq, t = self._seq_and_targets(s)
            seqs.append(seq)
            targets.append(t.reshape(len(seq), -1))
        logits = self.model.forward_sequences(seqs)
        y = np.stack(targets)
        # Mask padded tokens out of the loss.
        valid = np.stack([s.valid for s in seqs]).astype(np.float64)
        mask = nn.Tensor(valid[:, :, None])
        return nn.combined_bce_dice(logits * mask, y * valid[:, :, None])

    def _collated_loss(self, batch) -> nn.Tensor:
        """Loss from a pre-collated batch (pipeline pathway): patching and
        token stacking already happened outside the gradient loop, so only
        the label projection runs here."""
        if batch.samples is None:
            raise ValueError("collated batch lacks samples; collate with "
                             "samples= to train on it")
        if hasattr(self.patcher, "patchify_labels"):
            patchify = self.patcher.patchify_labels
        else:
            patchify = AdaptivePatcher(
                patch_size=batch.sequences[0].patch_size).patchify_labels
        targets = np.stack([
            patchify(s.mask, seq).reshape(len(seq), -1)
            for s, seq in zip(batch.samples, batch.sequences)])
        logits = self.model.forward(batch.tokens, batch.coords, batch.valid)
        valid = batch.valid.astype(np.float64)
        mask = nn.Tensor(valid[:, :, None])
        return nn.combined_bce_dice(logits * mask, targets * valid[:, :, None])

    def val_loss(self, samples: Sequence) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def predict_probs(self, sample) -> np.ndarray:
        img = _patcher_image(sample.image, self.channels)
        return self.model.predict_mask(_natural_sequence(self.patcher, img))


def _natural_sequence(patcher, img):
    """Inference-time sequence: skip random drop/pad when the patcher is
    adaptive (single images need no batching, and drops would leave holes)."""
    if hasattr(patcher, "extract_natural"):
        return patcher.extract_natural(img)
    return patcher(img)


class VolumeSegmentationTask:
    """VolumeViTSegmenter supervised at token level over octree cubes.

    The 3-D counterpart of :class:`TokenSegmentationTask`: samples carry a
    cubic ``image`` volume and an aligned integer ``mask`` (binarized to
    foreground for supervision). ``patcher`` is a
    :class:`~repro.patching.volumetric.VolumetricAdaptivePatcher` or a
    volumetric :class:`~repro.pipeline.engine.PatchPipeline` — the collated
    pathway (``Trainer.fit_loader`` over a ``DataLoader(pipeline=)``) moves
    all octree preprocessing out of the gradient loop.
    """

    def __init__(self, model, patcher):
        self.model = model
        self.patcher = patcher

    def parameters(self):
        return self.model.parameters()

    @staticmethod
    def _binary_mask(mask: np.ndarray) -> np.ndarray:
        return (np.asarray(mask) > 0).astype(np.float64)

    def _masked_loss(self, logits, targets: np.ndarray,
                     valid: np.ndarray) -> nn.Tensor:
        v = valid.astype(np.float64)
        mask = nn.Tensor(v[:, :, None])
        return nn.combined_bce_dice(logits * mask, targets * v[:, :, None])

    def batch_loss(self, samples) -> nn.Tensor:
        if hasattr(samples, "tokens") and hasattr(samples, "sequences"):
            return self._collated_loss(samples)
        seqs, targets = [], []
        for s in samples:
            seq = self.patcher(np.asarray(s.image, dtype=np.float64))
            t = self.patcher.patchify_labels(self._binary_mask(s.mask), seq)
            seqs.append(seq)
            targets.append(t.reshape(len(seq), -1))
        logits = self.model.forward_sequences(seqs)
        valid = np.stack([s.valid for s in seqs])
        return self._masked_loss(logits, np.stack(targets), valid)

    def _collated_loss(self, batch) -> nn.Tensor:
        if batch.samples is None:
            raise ValueError("collated batch lacks samples; collate with "
                             "samples= to train on it")
        targets = np.stack([
            self.patcher.patchify_labels(self._binary_mask(s.mask),
                                         seq).reshape(len(seq), -1)
            for s, seq in zip(batch.samples, batch.sequences)])
        logits = self.model.forward(batch.tokens, batch.coords, batch.valid)
        return self._masked_loss(logits, targets, batch.valid)

    def val_loss(self, samples) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def evaluate(self, samples) -> float:
        """Mean foreground dice (%) over whole volumes."""
        scores = []
        for s in samples:
            seq = _natural_sequence(self.patcher,
                                    np.asarray(s.image, dtype=np.float64))
            probs = self.model.predict_volume_probs(seq)
            scores.append(dice_score(probs, self._binary_mask(s.mask)))
        return float(np.mean(scores))


class ImageSegmentationTask(_SegTaskBase):
    """U-Net / TransUNet / Swin: images in, full-res logits out."""

    def __init__(self, model, channels: int = 1, multiclass: int = 0):
        super().__init__(model, channels)
        self.multiclass = multiclass

    def _images(self, samples) -> np.ndarray:
        return np.stack([prepare_image(s.image, self.channels) for s in samples])

    def batch_loss(self, samples: Sequence) -> nn.Tensor:
        logits = self.model(self._images(samples))
        if self.multiclass:
            onehot = np.zeros(logits.shape)
            for i, s in enumerate(samples):
                m = s.mask.astype(int)
                for k in range(self.multiclass):
                    onehot[i, k][m == k] = 1.0
            return (nn.multiclass_dice_loss(logits, onehot)
                    + nn.cross_entropy(logits.transpose(0, 2, 3, 1),
                                       np.stack([s.mask.astype(int) for s in samples])))
        masks = np.stack([s.mask[None] for s in samples])
        return nn.combined_bce_dice(logits, masks)

    def val_loss(self, samples: Sequence) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def predict_probs(self, sample) -> np.ndarray:
        return self.model.predict_mask(prepare_image(sample.image, self.channels))

    def evaluate(self, samples: Sequence) -> float:
        if not self.multiclass:
            return super().evaluate(samples)
        scores = []
        for s in samples:
            with nn.no_grad():
                logits = self.model(self._images([s])).data[0]
            pred = logits.argmax(axis=0)
            scores.append(np.nanmean(per_class_dice(pred, s.mask.astype(int),
                                                    self.multiclass)))
        return float(np.mean(scores))


class UNETRTask(_SegTaskBase):
    """UNETR2D: patch sequence + raw image in, full-res logits out."""

    def __init__(self, model, patcher, channels: int = 1):
        super().__init__(model, channels)
        self.patcher = patcher

    def batch_loss(self, samples: Sequence) -> nn.Tensor:
        imgs = np.stack([prepare_image(s.image, self.channels) for s in samples])
        seqs = [self.patcher(_patcher_image(s.image, self.channels))
                for s in samples]
        logits = self.model.forward_sequences(seqs, imgs)
        masks = np.stack([s.mask[None] for s in samples])
        return nn.combined_bce_dice(logits, masks)

    def val_loss(self, samples: Sequence) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def predict_probs(self, sample) -> np.ndarray:
        img = prepare_image(sample.image, self.channels)
        seq = _natural_sequence(self.patcher,
                                _patcher_image(sample.image, self.channels))
        return self.model.predict_mask(seq, img)


class SequenceClassificationTask:
    """ViTClassifier over patch sequences (Table V: ViT / APF-ViT)."""

    def __init__(self, model, patcher, channels: int = 3):
        self.model = model
        self.patcher = patcher
        self.channels = channels

    def parameters(self):
        return self.model.parameters()

    def _seqs(self, samples) -> List[PatchSequence]:
        return [self.patcher(_patcher_image(s.image, self.channels))
                for s in samples]

    def batch_loss(self, samples: Sequence) -> nn.Tensor:
        logits = self.model.forward_sequences(self._seqs(samples))
        labels = np.array([s.organ for s in samples])
        return nn.cross_entropy(logits, labels)

    def val_loss(self, samples: Sequence) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def evaluate(self, samples: Sequence) -> float:
        preds = [self.model.predict(seq) for seq in self._seqs(samples)]
        return top1_accuracy(preds, [s.organ for s in samples])


class ImageClassificationTask:
    """HIPTLite classification straight from images (Table V competitor)."""

    def __init__(self, model, channels: int = 3):
        self.model = model
        self.channels = channels

    def parameters(self):
        return self.model.parameters()

    def batch_loss(self, samples: Sequence) -> nn.Tensor:
        imgs = np.stack([prepare_image(s.image, self.channels) for s in samples])
        logits = self.model(imgs)
        return nn.cross_entropy(logits, np.array([s.organ for s in samples]))

    def val_loss(self, samples: Sequence) -> float:
        with nn.no_grad():
            return float(self.batch_loss(samples).data)

    def evaluate(self, samples: Sequence) -> float:
        preds = [self.model.predict(prepare_image(s.image, self.channels))
                 for s in samples]
        return top1_accuracy(preds, [s.organ for s in samples])
