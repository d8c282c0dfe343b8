"""Unit tests for the input-stationary (IS) dataflow extension.

The paper names IS (Section II-D) without evaluating it; this repo
implements it as the transposed-WS execution. The key behavioural fact:
a stuck-at fault corrupts an output *row* — the dual of the WS column.
"""

import numpy as np
import pytest

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.classifier import PatternClass
from repro.core.predictor import predict_pattern
from repro.gemmini import GemminiAccelerator
from repro.ops import TiledGemm, reference_gemm
from repro.systolic import (
    CycleSimulator,
    Dataflow,
    FunctionalSimulator,
    MeshConfig,
)

from tests.conftest import stuck_at

IS = Dataflow.INPUT_STATIONARY
ENGINES = [CycleSimulator, FunctionalSimulator]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestGolden:
    def test_matmul_matches_numpy(self, engine_cls, mesh4, rng):
        a = rng.integers(-128, 128, size=(4, 4))
        b = rng.integers(-128, 128, size=(4, 4))
        assert np.array_equal(engine_cls(mesh4).matmul(a, b, IS), a @ b)

    def test_n_is_the_stream_dimension(self, engine_cls, mesh4, rng):
        # Under IS the weight stream N is unbounded; M and K must fit.
        a = rng.integers(-10, 10, size=(3, 4))
        b = rng.integers(-10, 10, size=(4, 30))
        assert np.array_equal(engine_cls(mesh4).matmul(a, b, IS), a @ b)

    def test_constraints(self, engine_cls, mesh4):
        with pytest.raises(ValueError):
            engine_cls(mesh4).matmul(np.ones((5, 4)), np.ones((4, 2)), IS)
        with pytest.raises(ValueError):
            engine_cls(mesh4).matmul(np.ones((2, 5)), np.ones((5, 2)), IS)


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestRowPattern:
    def test_fault_corrupts_single_row(self, engine_cls, mesh4):
        ones = np.ones((4, 4), dtype=np.int64)
        golden = engine_cls(mesh4).matmul(ones, ones, IS)
        faulty = engine_cls(mesh4, stuck_at(1, 2)).matmul(ones, ones, IS)
        diff = golden != faulty
        assert diff[2, :].all()
        assert not diff[[0, 1, 3], :].any()

    def test_mesh_row_position_is_irrelevant(self, engine_cls, mesh4):
        ones = np.ones((4, 4), dtype=np.int64)
        outputs = [
            engine_cls(mesh4, stuck_at(row, 2)).matmul(ones, ones, IS)
            for row in range(4)
        ]
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    def test_fault_outside_used_rows_is_masked(self, engine_cls, mesh4):
        a = np.ones((2, 4), dtype=np.int64)  # only mesh cols 0,1 live
        b = np.ones((4, 4), dtype=np.int64)
        golden = engine_cls(mesh4).matmul(a, b, IS)
        faulty = engine_cls(mesh4, stuck_at(0, 3)).matmul(a, b, IS)
        assert np.array_equal(golden, faulty)


class TestTiledAndStacked:
    def test_tiled_rows_at_mesh_stride(self, mesh4):
        ones = np.ones((12, 12), dtype=np.int64)
        golden = reference_gemm(ones, ones)
        faulty = TiledGemm(FunctionalSimulator(mesh4, stuck_at(0, 1)))(
            ones, ones, IS
        ).output
        rows = sorted(set(np.where(golden != faulty)[0]))
        assert rows == [1, 5, 9]

    def test_accelerator_supports_is(self, mesh4, rng):
        a = rng.integers(-128, 128, size=(10, 4))
        b = rng.integers(-128, 128, size=(4, 9))
        accel = GemminiAccelerator(mesh4)
        assert np.array_equal(accel.matmul(a, b, dataflow=IS),
                              reference_gemm(a, b))

    def test_accelerator_faulty_is_row_pattern(self, mesh4):
        ones = np.ones((8, 8), dtype=np.int64)
        accel = GemminiAccelerator(mesh4, injector=stuck_at(0, 2))
        out = accel.matmul(ones, ones, dataflow=IS)
        rows = sorted(set(np.where(reference_gemm(ones, ones) != out)[0]))
        assert rows == [2, 6]


class TestCampaignAndPredictor:
    def test_untiled_campaign_single_row(self, mesh4):
        result = Campaign(mesh4, GemmWorkload.square(4, IS)).run()
        assert result.dominant_class() is PatternClass.SINGLE_ROW
        assert result.is_single_class()
        assert result.mean_corrupted_cells() == 4.0

    def test_tiled_campaign_multi_tile_rows(self, mesh4):
        result = Campaign(mesh4, GemmWorkload.square(8, IS)).run()
        assert result.dominant_class() is PatternClass.SINGLE_ROW_MULTI_TILE

    def test_predictor_exact_for_is(self, mesh4):
        result = Campaign(mesh4, GemmWorkload.square(8, IS)).run()
        for experiment in result.experiments:
            predicted = predict_pattern(experiment.site, result.plan)
            assert predicted.pattern_class is experiment.pattern_class
            assert np.array_equal(
                predicted.support, experiment.pattern.gemm_mask()
            )
