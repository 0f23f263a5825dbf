"""``repro.nn`` — a from-scratch NumPy autograd + NN substrate.

This package substitutes for PyTorch in the APF reproduction (see DESIGN.md
section 1). Public surface:

* :mod:`repro.nn.tensor` — :class:`Tensor`, :func:`no_grad`, graph combinators
* :mod:`repro.nn.functional` — conv/pool/softmax/layernorm primitives
* :mod:`repro.nn.modules` — ``Module`` hierarchy (Linear ... TransformerEncoder)
* :mod:`repro.nn.optim` — SGD/Adam/AdamW + LR schedulers
* :mod:`repro.nn.losses` — BCE + dice (paper Eq. 7-9), cross-entropy
"""

from . import functional, kernels
from .losses import (bce_loss, combined_bce_dice, cross_entropy, dice_loss,
                     multiclass_dice_loss)
from .modules import (MLP, BatchNorm2d, Conv2d, ConvTranspose2d, Dropout,
                      GroupNorm, Identity, LayerNorm, Linear, Module,
                      ModuleList, MultiHeadAttention, Parameter, Sequential,
                      TransformerEncoder, TransformerEncoderLayer,
                      attention_bias, inference_op)
from .optim import SGD, Adam, AdamW, CosineLR, MultiStepLR, clip_grad_norm
from .tensor import Tensor, concat, is_grad_enabled, no_grad, ones, stack, tensor, zeros

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones",
    "concat", "stack", "functional", "kernels", "attention_bias", "inference_op",
    "Parameter", "Module", "Sequential", "ModuleList", "Identity", "Linear",
    "Dropout", "LayerNorm", "Conv2d", "ConvTranspose2d", "BatchNorm2d",
    "GroupNorm", "MultiHeadAttention", "MLP", "TransformerEncoderLayer",
    "TransformerEncoder",
    "SGD", "Adam", "AdamW", "MultiStepLR", "CosineLR", "clip_grad_norm",
    "bce_loss", "dice_loss", "combined_bce_dice", "cross_entropy",
    "multiclass_dice_loss",
]
