"""Content digests for tokens.

Token digests quantize each token's content to an integer grid and view
the rows as opaque fixed-width byte strings: equal digests mean
"near-identical content" at the configured quantization. They key the
background logits table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_tokens", "token_digests"]


def quantize_tokens(tokens: np.ndarray, quantize: int) -> np.ndarray:
    """Quantize (L, D) token content to ``quantize`` integer levels.

    Inputs live in [0, 1] (image intensities); values outside are clipped
    by the cast only in the sense of rounding — the grid is uniform with
    step ``1/quantize``. ``quantize = 0`` returns the exact float view
    (digests then collapse only bitwise-identical tokens).
    """
    t = np.asarray(tokens, dtype=np.float64)
    if quantize <= 0:
        return t
    return np.rint(t * quantize).astype(np.int32)


def token_digests(tokens: np.ndarray, quantize: int) -> np.ndarray:
    """(L,) array of fixed-width byte strings, one per token row.

    Rows with equal digests have identical quantized content. The void
    view makes whole-row equality a single vectorized comparison, and
    ``digests[i].tobytes()`` is a stable dict key.
    """
    q = np.ascontiguousarray(quantize_tokens(tokens, quantize))
    return q.view((np.void, q.dtype.itemsize * q.shape[1]))[:, 0]
