"""Quantised inference layers.

A deliberately small layer zoo — exactly the operators the paper names
(Section II-A): convolution, fully-connected (GEMM), ReLU and MaxPool,
operating on integer tensors with INT32 accumulation and INT8
requantisation between layers. Compute layers delegate their inner
GEMM/conv to a pluggable :class:`~repro.nn.backends.Backend`, which is how
the fault studies run the same model on golden numpy, on a faulty systolic
mesh, or under application-level pattern injection.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes import INT8, wrap_array
from repro.nn.backends import Backend, ReferenceBackend
from repro.nn.quantize import requantize_shift

__all__ = ["Layer", "Conv2D", "Dense", "ReLU", "MaxPool2D", "Flatten"]


class Layer:
    """Base class: a pure function of an integer tensor."""

    #: Whether the layer runs a GEMM/conv on the accelerator backend.
    is_compute = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layer; must not modify the input."""
        raise NotImplementedError

    def set_backend(self, backend: Backend) -> None:
        """Attach an execution backend (no-op for non-compute layers)."""


class Conv2D(Layer):
    """Quantised 2-D convolution: INT8 x INT8 -> INT32 -> shift -> INT8.

    Parameters
    ----------
    weights:
        KCRS integer kernel (INT8 range).
    bias:
        Optional per-channel INT32 bias.
    stride, padding:
        Spatial hyper-parameters.
    shift:
        Requantisation right-shift applied to the accumulator output;
        ``None`` keeps raw INT32 outputs (used by the final layer).
    """

    is_compute = True

    def __init__(
        self,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        stride: int = 1,
        padding: int = 0,
        shift: int | None = 4,
    ) -> None:
        weights = np.asarray(weights)
        if weights.ndim != 4:
            raise ValueError(f"weights must be KCRS, got shape {weights.shape}")
        self.weights = wrap_array(weights, INT8)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.int64)
        if self.bias is not None and self.bias.shape != (weights.shape[0],):
            raise ValueError(
                f"bias must have shape ({weights.shape[0]},), got {self.bias.shape}"
            )
        self.stride = stride
        self.padding = padding
        self.shift = shift
        self._backend: Backend = ReferenceBackend()

    def set_backend(self, backend: Backend) -> None:
        self._backend = backend

    def forward(self, x: np.ndarray) -> np.ndarray:
        acc = self._backend.conv2d(
            np.asarray(x), self.weights, self.stride, self.padding
        )
        if self.bias is not None:
            acc = acc + self.bias[None, :, None, None]
        if self.shift is None:
            return acc
        return requantize_shift(acc, self.shift)


class Dense(Layer):
    """Quantised fully-connected layer over ``(batch, features)`` inputs."""

    is_compute = True

    def __init__(
        self,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        shift: int | None = None,
    ) -> None:
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ValueError(
                f"weights must be (in_features, out_features), got {weights.shape}"
            )
        self.weights = wrap_array(weights, INT8)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.int64)
        if self.bias is not None and self.bias.shape != (weights.shape[1],):
            raise ValueError(
                f"bias must have shape ({weights.shape[1]},), got {self.bias.shape}"
            )
        self.shift = shift
        self._backend: Backend = ReferenceBackend()

    def set_backend(self, backend: Backend) -> None:
        self._backend = backend

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"Dense expects (batch, features), got {x.shape}")
        if x.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"input features {x.shape[1]} != weight rows "
                f"{self.weights.shape[0]}"
            )
        acc = self._backend.gemm(x, self.weights)
        if self.bias is not None:
            acc = acc + self.bias[None, :]
        if self.shift is None:
            return acc
        return requantize_shift(acc, self.shift)


class ReLU(Layer):
    """Elementwise ``max(0, x)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x), 0)


class MaxPool2D(Layer):
    """Non-overlapping max pooling over NCHW tensors."""

    def __init__(self, size: int = 2) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects NCHW, got {x.shape}")
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(
                f"spatial dims ({h}, {w}) not divisible by pool size {s}"
            )
        return x.reshape(n, c, h // s, s, w // s, s).max(axis=(3, 5))


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return x.reshape(x.shape[0], -1)
