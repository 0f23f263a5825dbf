"""Configuration of the background short-circuit."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SparsityConfig", "MODES", "DETAIL_THRESHOLD", "QUANTIZE",
           "TABLE_ITEMS", "MIN_BACKGROUND"]

#: Valid values of :attr:`SparsityConfig.mode`.
MODES = ("auto", "dense")
#: Tokens with Eq. 6 detail mass <= this are background candidates: only
#: provably flat leaves (zero edge mass).
DETAIL_THRESHOLD = 0.0
#: Content-quantization levels of token digests (unit range / levels).
#: Only flat tokens are digested, and flat-but-noisy background shatters
#: under fine grids into one-off digests that each keep a representative
#: in-sequence; 8 keeps the table hot at a measured ~1 pp agreement cost
#: against 256.
QUANTIZE = 8
#: LRU capacity of the background logits table (distinct digests).
TABLE_ITEMS = 4096
#: Fewest background tokens worth planning around: below this the bucket
#: rarely shrinks, so the bookkeeping is pure overhead.
MIN_BACKGROUND = 4


@dataclass(frozen=True)
class SparsityConfig:
    """The one setting of the background short-circuit.

    * ``"auto"`` — a sequence short-circuits exactly when routing its
      background tokens around the model moves it to a strictly smaller
      length bucket (a cheaper compiled signature); otherwise it runs
      dense.
    * ``"dense"`` — every sequence runs dense, and outputs are bitwise
      identical to a predictor without sparsity; the table still warms.

    ``Predictor(sparsity=None)`` turns the subsystem off.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown sparsity mode {self.mode!r}")
