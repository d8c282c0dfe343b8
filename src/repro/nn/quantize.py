"""INT8 quantisation helpers for the inference engine.

The paper's platform runs INT8 inference (Table I); this module provides
the minimal fixed-point machinery for that: symmetric per-tensor
quantisation of float weights, and the power-of-two requantisation step
that follows each accumulation layer (INT32 accumulator -> INT8
activation), implemented as a rounding right-shift with saturation — the
standard edge-accelerator scheme.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes import INT8, IntType

__all__ = ["quantize_symmetric", "requantize_shift", "dequantize"]


def quantize_symmetric(
    values: np.ndarray, dtype: IntType = INT8
) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor quantisation of float values.

    Returns the integer tensor and the scale such that
    ``values ~= quantized * scale``. All-zero inputs quantise to zeros with
    scale 1.0.
    """
    values = np.asarray(values, dtype=np.float64)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        return np.zeros(values.shape, dtype=np.int64), 1.0
    scale = peak / dtype.max_value
    quantized = np.clip(
        np.round(values / scale), dtype.min_value, dtype.max_value
    ).astype(np.int64)
    return quantized, scale


def requantize_shift(
    acc: np.ndarray, shift: int, dtype: IntType = INT8
) -> np.ndarray:
    """Requantise INT32 accumulators to INT8 by rounding right-shift.

    ``out = clamp(round(acc / 2**shift))`` — the saturating narrowing step
    between layers. Saturation (not wrap) is correct here: this is the
    activation quantiser, not the ALU.
    """
    if shift < 0:
        raise ValueError(f"shift must be non-negative, got {shift}")
    acc = np.asarray(acc, dtype=np.int64)
    if shift == 0:
        shifted = acc
    else:
        # Round-half-up before shifting, as hardware requantisers do.
        shifted = (acc + (1 << (shift - 1))) >> shift
    return np.clip(shifted, dtype.min_value, dtype.max_value)


def dequantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Map integer values back to float with the given scale."""
    return np.asarray(values, dtype=np.float64) * scale
