"""Layer/module system built on the autograd engine.

Mirrors the subset of ``torch.nn`` the APF model zoo requires: parameter
registration with recursive discovery, train/eval modes, and the standard
transformer + convolutional building blocks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import kernels as K
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "attention_bias",
    "inference_op",
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Identity",
    "Linear",
    "Dropout",
    "LayerNorm",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "GroupNorm",
    "MultiHeadAttention",
    "MLP",
    "TransformerEncoderLayer",
    "TransformerEncoder",
]


class Parameter(Tensor):
    """A :class:`Tensor` flagged as trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter/submodule discovery."""

    def __init__(self) -> None:
        self.training = True

    # -- registration by attribute assignment (torch-style) -------------
    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        seen = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, val in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(val, Parameter):
                yield full, val
            elif isinstance(val, Module):
                yield from val.named_parameters(prefix=f"{full}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for val in vars(self).values():
            if isinstance(val, Module):
                yield from val.modules()
            elif isinstance(val, (list, tuple)):
                for item in val:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state dict ------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"missing keys in state dict: {sorted(missing)}")
        for name, arr in state.items():
            if name not in params:
                raise KeyError(f"unexpected key in state dict: {name}")
            if params[name].data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {params[name].data.shape} vs {arr.shape}")
            params[name].data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class ModuleList(Module):
    """A registered list of submodules."""

    def __init__(self, modules: Optional[Iterable[Module]] = None):
        super().__init__()
        self.items = list(modules) if modules is not None else []

    def append(self, m: Module) -> None:
        self.items.append(m)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.items)

    def __getitem__(self, i: int) -> Module:
        return self.items[i]

    def __len__(self) -> int:
        return len(self.items)

    def forward(self, *a, **k):  # pragma: no cover
        raise RuntimeError("ModuleList is a container; call items explicitly")


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


def _kaiming_uniform(rng: np.random.Generator, shape: Tuple[int, ...],
                     fan_in: int, dtype=np.float32) -> np.ndarray:
    bound = math.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Linear(Module):
    """Affine map ``y = x W^T + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(rng, (out_features, in_features),
                                                 in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        y = x @ self.weight.transpose()
        if self.bias is not None:
            y = y + self.bias
        return y


class Dropout(Module):
    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5, dtype=np.float32):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=dtype))
        self.bias = Parameter(np.zeros(dim, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Conv2d(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        fan_in = in_ch * kernel * kernel
        self.stride, self.padding = stride, padding
        self.weight = Parameter(_kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel),
                                                 fan_in, dtype))
        self.bias = Parameter(np.zeros(out_ch, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class ConvTranspose2d(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        fan_in = in_ch * kernel * kernel
        self.stride, self.padding = stride, padding
        self.weight = Parameter(_kaiming_uniform(rng, (in_ch, out_ch, kernel, kernel),
                                                 fan_in, dtype))
        self.bias = Parameter(np.zeros(out_ch, dtype=dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalization over (N,H,W) per channel, with running stats."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float32):
        super().__init__()
        self.eps, self.momentum = eps, momentum
        self.weight = Parameter(np.ones(channels, dtype=dtype))
        self.bias = Parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = x.data.mean(axis=(0, 2, 3))
            var = x.data.var(axis=(0, 2, 3))
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu).astype(self.running_mean.dtype)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var).astype(self.running_var.dtype)
        else:
            mu, var = self.running_mean, self.running_var
        inv = (1.0 / np.sqrt(var + self.eps)).reshape(1, -1, 1, 1)
        mu_t = Tensor(mu.reshape(1, -1, 1, 1))
        xhat = (x - mu_t) * Tensor(inv)
        return xhat * self.weight.reshape(1, -1, 1, 1) + self.bias.reshape(1, -1, 1, 1)


class GroupNorm(Module):
    """Group normalization (batch-size independent; default for small batches)."""

    def __init__(self, groups: int, channels: int, eps: float = 1e-5, dtype=np.float32):
        super().__init__()
        if channels % groups:
            raise ValueError(f"channels ({channels}) must divide by groups ({groups})")
        self.groups, self.eps = groups, eps
        self.weight = Parameter(np.ones(channels, dtype=dtype))
        self.bias = Parameter(np.zeros(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        g = self.groups
        xg = x.reshape(n, g, c // g * h * w)
        mu = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        xhat = (xg - mu) * ((var + self.eps) ** -0.5)
        xhat = xhat.reshape(n, c, h, w)
        return xhat * self.weight.reshape(1, -1, 1, 1) + self.bias.reshape(1, -1, 1, 1)


def attention_bias(key_mask: np.ndarray, dtype) -> np.ndarray:
    """Additive attention bias from a (N, L) boolean key mask.

    False marks padding keys that must receive (numerically) zero attention.
    Shared by the eager forward and
    :meth:`repro.models.vit.ViTBackbone.prepare_inputs` so the compiled
    runtime feeds bit-identical bias values.
    """
    return np.where(key_mask[:, None, None, :], 0.0, -1e9).astype(dtype)


def inference_op(name: str, params: tuple, *inputs: Tensor) -> Tensor:
    """Run kernel ``name`` as a traced op with no tape: fused attention and
    the packed serving path (positional gather, varlen attention) are
    inference-only."""
    if is_grad_enabled() and any(t.requires_grad for t in inputs):
        raise RuntimeError(f"{name} is inference-only; run it under no_grad")
    out = Tensor(K.forward(name, params, *[t.data for t in inputs]))
    K.record(name, params, inputs, out)
    return out


class MultiHeadAttention(Module):
    """Standard dense multi-head self-attention (paper Eq. 2-5), unchanged.

    APF's central claim is that the attention mechanism stays *intact*; this
    module is therefore the vanilla O(N^2) formulation.
    """

    def __init__(self, dim: int, heads: int, rng: Optional[np.random.Generator] = None,
                 dtype=np.float32, attn_dropout: float = 0.0):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim ({dim}) must divide by heads ({heads})")
        rng = rng or np.random.default_rng(0)
        self.dim, self.heads = dim, heads
        self.head_dim = dim // heads
        self.wq = Linear(dim, dim, rng=rng, dtype=dtype)
        self.wk = Linear(dim, dim, rng=rng, dtype=dtype)
        self.wv = Linear(dim, dim, rng=rng, dtype=dtype)
        self.wo = Linear(dim, dim, rng=rng, dtype=dtype)
        self.attn_drop = Dropout(attn_dropout, rng=rng)

    def _split(self, x: Tensor, n: int, length: int) -> Tensor:
        # (N, L, D) -> (N, H, L, Dh)
        return x.reshape(n, length, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _scale(self, dtype) -> Tensor:
        """Dtype-matched 1/sqrt(Dh) so float32 models stay float32 (a python
        scalar would coerce to a float64 0-d array and silently promote the
        whole downstream graph — double the bandwidth on this box)."""
        return Tensor(np.asarray(1.0 / math.sqrt(self.head_dim), dtype=dtype))

    def forward(self, x: Tensor, key_mask: Optional[np.ndarray] = None,
                attn_bias: Optional[Tensor] = None,
                segments: Optional[Tensor] = None) -> Tensor:
        """``key_mask``: optional (N, L) boolean array; False marks padding
        keys that must receive zero attention (APF's pad-to-length step).
        ``attn_bias``: precomputed additive-bias tensor (see
        :func:`attention_bias`) — the shape-stable form the compiled runtime
        feeds; overrides ``key_mask``. ``segments``: the layout of a packed
        input (see :meth:`repro.models.vit.ViTBackbone.prepare_inputs`);
        each packed sequence then attends only within itself.

        Packed, or traced for a compiled plan, attention runs as one
        kernel (``sdpa_varlen`` or ``sdpa``) that replays the ufuncs of the
        differentiable chain below, so both give the same bits."""
        n, length, _ = x.shape
        if attn_bias is None and key_mask is not None:
            attn_bias = Tensor(attention_bias(key_mask, x.dtype))
        if segments is not None or (K.tracing() and self.attn_drop.p == 0):
            if attn_bias is None:
                attn_bias = Tensor(np.zeros((n, 1, 1, length), x.dtype))
            op, extra = ("sdpa", ()) if segments is None else \
                ("sdpa_varlen", (segments,))
            return self.wo(inference_op(op, (self.heads,), self.wq(x),
                                        self.wk(x), self.wv(x), attn_bias,
                                        *extra))
        q = self._split(self.wq(x), n, length)
        k = self._split(self.wk(x), n, length)
        v = self._split(self.wv(x), n, length)
        scores = (q @ k.transpose(0, 1, 3, 2)) * self._scale(x.dtype)  # (N,H,L,L)
        if attn_bias is not None:
            scores = scores + attn_bias
        attn = F.softmax(scores, axis=-1)
        attn = self.attn_drop(attn)
        ctx = attn @ v                                           # (N,H,L,Dh)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(n, length, self.dim)
        return self.wo(ctx)

    def attention_map(self, x: Tensor) -> np.ndarray:
        """Return the (N,H,L,L) attention matrix without building a tape."""
        from .tensor import no_grad
        with no_grad():
            n, length, _ = x.shape
            q = self._split(self.wq(x), n, length)
            k = self._split(self.wk(x), n, length)
            scores = (q @ k.transpose(0, 1, 3, 2)) * self._scale(x.dtype)
            return F.softmax(scores, axis=-1).data


class MLP(Module):
    """Transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None,
                 dtype=np.float32, drop: float = 0.0):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(dim, hidden, rng=rng, dtype=dtype)
        self.fc2 = Linear(hidden, dim, rng=rng, dtype=dtype)
        self.drop = Dropout(drop, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.fc2(self.fc1(x).gelu()))


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: x + MHA(LN(x)); x + MLP(LN(x))."""

    def __init__(self, dim: int, heads: int, mlp_ratio: float = 4.0,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32,
                 drop: float = 0.0):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.norm1 = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(dim, heads, rng=rng, dtype=dtype)
        self.norm2 = LayerNorm(dim, dtype=dtype)
        self.mlp = MLP(dim, int(dim * mlp_ratio), rng=rng, dtype=dtype, drop=drop)

    def forward(self, x: Tensor, key_mask: Optional[np.ndarray] = None,
                attn_bias: Optional[Tensor] = None,
                segments: Optional[Tensor] = None) -> Tensor:
        x = x + self.attn(self.norm1(x), key_mask=key_mask,
                          attn_bias=attn_bias, segments=segments)
        x = x + self.mlp(self.norm2(x))
        return x


class TransformerEncoder(Module):
    """A stack of encoder layers that can also return intermediate states
    (UNETR taps layers {3,6,9,12} for its skip connections)."""

    def __init__(self, dim: int, depth: int, heads: int, mlp_ratio: float = 4.0,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32,
                 drop: float = 0.0):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList([
            TransformerEncoderLayer(dim, heads, mlp_ratio, rng=rng, dtype=dtype,
                                    drop=drop)
            for _ in range(depth)
        ])
        self.norm = LayerNorm(dim, dtype=dtype)

    def forward(self, x: Tensor, return_hidden: Sequence[int] = (),
                key_mask: Optional[np.ndarray] = None,
                attn_bias: Optional[Tensor] = None,
                segments: Optional[Tensor] = None) -> Tensor:
        hidden: List[Tensor] = []
        for i, layer in enumerate(self.layers, start=1):
            x = layer(x, key_mask=key_mask, attn_bias=attn_bias,
                      segments=segments)
            if i in return_hidden:
                hidden.append(x)
        x = self.norm(x)
        if return_hidden:
            return x, hidden
        return x
