"""On-the-fly fault-pattern derivation for application-level FI.

The paper's proposed use of its findings (Section IV Discussion):
application-level fault injectors "can leverage our insights about the
tiling effect and flattening of convolution operators to derive fault
patterns on the fly for various systolic array sizes and data mapping
schemes, as opposed to hard-coding the abstract fault pattern classes or
ignoring them."

This module is that derivation: given only (a) the tensor operation's
shape, (b) the target accelerator's mesh size and dataflow, and (c) a fault
site, it produces the exact corruption support an RTL-level stuck-at fault
would have — by reusing the tiling planner and analytical predictor that
the RTL-equivalent simulator validates.

Value perturbation of the covered elements follows the standard
application-level FI approximation (as in TensorFI/PyTorchFI): a bit of
each covered output element is forced/flipped. The support is exact; the
perturbed *values* are an approximation of what the datapath fault would
produce mid-accumulation, quantified by the appfi-vs-RTL ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import PatternClass
from repro.core.predictor import PredictedPattern, predict_pattern
from repro.datatypes import INT32, IntType, flip_bit_array, force_bit_array
from repro.faults.sites import FaultSite
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import plan_gemm_tiling
from repro.systolic.array import MeshConfig
from repro.systolic.dataflow import Dataflow

__all__ = ["HardwareModel", "DerivedPattern"]


@dataclass(frozen=True)
class DerivedPattern:
    """A runtime-derived fault pattern ready to apply to a tensor.

    Wraps the analytical :class:`PredictedPattern` together with the
    operation context it was derived for.
    """

    prediction: PredictedPattern
    mesh: MeshConfig
    dataflow: Dataflow
    geometry: ConvGeometry | None = None

    @property
    def pattern_class(self) -> PatternClass:
        return self.prediction.pattern_class

    @property
    def gemm_support(self) -> np.ndarray:
        """Boolean mask over the (lowered) GEMM output."""
        return self.prediction.support

    def conv_support(self) -> np.ndarray:
        """Boolean mask over the ``(N, K, P, Q)`` convolution output."""
        if self.geometry is None:
            raise ValueError("conv_support requires a convolution context")
        return self.prediction.conv_support(self.geometry)


class HardwareModel:
    """The systolic-array hardware model for an application-level injector.

    Parameters
    ----------
    mesh:
        Target accelerator mesh size; unlike the RTL platform, *any* size
        is cheap here — including the 128x128 arrays the paper's FPGA
        could not synthesise.
    dataflow:
        The accelerator's mapping scheme.
    """

    def __init__(self, mesh: MeshConfig, dataflow: Dataflow) -> None:
        self.mesh = mesh
        self.dataflow = dataflow

    # ------------------------------------------------------------------
    # Pattern derivation
    # ------------------------------------------------------------------
    def derive_gemm(self, m: int, k: int, n: int, site: FaultSite) -> DerivedPattern:
        """Derive the pattern of ``site`` for an ``MxKxN`` GEMM."""
        plan = plan_gemm_tiling(m, k, n, self.mesh, self.dataflow)
        prediction = predict_pattern(site, plan)
        return DerivedPattern(
            prediction=prediction, mesh=self.mesh, dataflow=self.dataflow
        )

    def derive_conv(self, geometry: ConvGeometry, site: FaultSite) -> DerivedPattern:
        """Derive the pattern of ``site`` for a lowered convolution."""
        plan = plan_gemm_tiling(
            geometry.gemm_m, geometry.gemm_k, geometry.gemm_n, self.mesh, self.dataflow
        )
        prediction = predict_pattern(site, plan, geometry=geometry)
        return DerivedPattern(
            prediction=prediction,
            mesh=self.mesh,
            dataflow=self.dataflow,
            geometry=geometry,
        )

    def random_site(self, rng: np.random.Generator, bit: int = 20) -> FaultSite:
        """A uniformly random MAC site on this mesh (paper Fig. 2's dice)."""
        row = int(rng.integers(0, self.mesh.rows))
        col = int(rng.integers(0, self.mesh.cols))
        return FaultSite(row=row, col=col, bit=bit)

    # ------------------------------------------------------------------
    # Tensor corruption
    # ------------------------------------------------------------------
    @staticmethod
    def corrupt(
        tensor: np.ndarray,
        support: np.ndarray,
        bit: int,
        mode: str = "stuck1",
        dtype: IntType = INT32,
    ) -> np.ndarray:
        """Perturb ``tensor`` on the ``support`` cells.

        Parameters
        ----------
        mode:
            ``"stuck1"`` / ``"stuck0"`` force the bit; ``"flip"`` inverts
            it (the transient counterpart).

        Returns a new array; the input is never modified.
        """
        tensor = np.asarray(tensor)
        if support.shape != tensor.shape:
            raise ValueError(
                f"support shape {support.shape} != tensor shape {tensor.shape}"
            )
        flat = tensor.reshape(-1).astype(np.int64)
        mask = support.reshape(-1)
        affected = flat[mask]
        if mode == "stuck1":
            affected = force_bit_array(affected, bit, 1, dtype)
        elif mode == "stuck0":
            affected = force_bit_array(affected, bit, 0, dtype)
        elif mode == "flip":
            affected = flip_bit_array(affected, bit, dtype)
        else:
            raise ValueError(f"unknown corruption mode: {mode!r}")
        out = flat.copy()
        out[mask] = affected
        return out.reshape(tensor.shape)
