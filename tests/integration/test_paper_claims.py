"""Integration tests: the paper's published claims at paper scale.

These run the actual Table I configurations (16x16 mesh, exhaustive
256-experiment campaigns) on the fast engine and assert the qualitative
results of Section IV. They are the library-level counterparts of the
benchmark harness (which additionally prints the Fig. 3 artefacts).
"""

import numpy as np
import pytest

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.classifier import PatternClass
from repro.core.predictor import predict_pattern
from repro.core.sampling import corner_sites, diagonal_sites
from repro.systolic import Dataflow, MeshConfig

MESH = MeshConfig.paper()

OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY

# Exhaustive 256-site sweeps on the 112x112 workloads belong to the
# benchmark harness; the integration tests witness the same claims with
# the diagonal + corner sample (21 sites), which covers every mesh row and
# column index at a fraction of the runtime.
SAMPLED = sorted(set(diagonal_sites(MESH)) | set(corner_sites(MESH)))


@pytest.fixture(scope="module")
def rq1_results():
    return {
        dataflow: Campaign(MESH, GemmWorkload.square(16, dataflow)).run()
        for dataflow in Dataflow
    }


class TestRQ1Dataflows:
    def test_os_single_element(self, rq1_results):
        result = rq1_results[OS]
        assert result.dominant_class() is PatternClass.SINGLE_ELEMENT
        assert result.is_single_class()
        assert len(result.experiments) == 256

    def test_ws_single_column(self, rq1_results):
        result = rq1_results[WS]
        assert result.dominant_class() is PatternClass.SINGLE_COLUMN
        assert result.is_single_class()

    def test_os_more_fault_tolerant(self, rq1_results):
        """RQ1 and Burel et al.: OS corrupts 1 cell, WS a 16-cell column."""
        assert rq1_results[OS].mean_corrupted_cells() == 1.0
        assert rq1_results[WS].mean_corrupted_cells() == 16.0


class TestRQ2Operations:
    def test_gemm_column_vs_conv_channel(self):
        gemm = Campaign(MESH, GemmWorkload.square(16, WS)).run()
        conv = Campaign(MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 3))).run()
        assert gemm.dominant_class() is PatternClass.SINGLE_COLUMN
        assert conv.dominant_class() is PatternClass.SINGLE_CHANNEL

    def test_conv_corrupts_entire_channel(self):
        result = Campaign(
            MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 3)), sites=[(2, 1)]
        ).run()
        pattern = result.experiments[0].pattern
        channels = pattern.corrupted_channels()
        assert channels == (1,)
        # Every spatial position of the channel is corrupted (paper IV-A2).
        assert pattern.channel_mask(1).all()

    def test_conv_channel_equals_gemm_column(self):
        """Section II-B: channel k of the conv output is GEMM column k."""
        result = Campaign(
            MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 8)), sites=[(0, 5)]
        ).run()
        pattern = result.experiments[0].pattern
        gemm_mask = pattern.gemm_mask()
        assert gemm_mask[:, 5].all()
        assert pattern.corrupted_channels() == (5,)


class TestRQ3Tiling:
    def test_gemm_112_ws_multi_tile(self):
        result = Campaign(
            MESH, GemmWorkload.square(112, WS), sites=SAMPLED
        ).run()
        assert result.dominant_class() is PatternClass.SINGLE_COLUMN_MULTI_TILE
        assert result.is_single_class()
        # Column tiles: 112 / 16 = 7 corrupted columns, full height.
        assert result.mean_corrupted_cells() == 7 * 112

    def test_gemm_112_os_multi_tile(self):
        result = Campaign(
            MESH, GemmWorkload.square(112, OS), sites=SAMPLED
        ).run()
        assert result.dominant_class() is PatternClass.SINGLE_ELEMENT_MULTI_TILE
        # 7x7 output tiles each replicate the faulty element once.
        assert result.mean_corrupted_cells() == 49.0

    def test_same_fault_appears_across_tiles_at_stride_16(self):
        result = Campaign(
            MESH, GemmWorkload.square(112, OS), sites=[(3, 5)]
        ).run()
        coords = set(result.experiments[0].pattern.corrupted_cells())
        expected = {
            (3 + 16 * i, 5 + 16 * j) for i in range(7) for j in range(7)
        }
        assert coords == expected

    def test_reduction_tiling_alone_adds_no_spatial_structure(self):
        """Section IV-A3: K-dim tiles accumulate into the same coordinates."""
        fits = Campaign(
            MESH, GemmWorkload(16, 16, 16, WS), sites=[(0, 3)]
        ).run()
        deep = Campaign(
            MESH, GemmWorkload(16, 112, 16, WS), sites=[(0, 3)]
        ).run()
        assert np.array_equal(
            fits.experiments[0].pattern.mask, deep.experiments[0].pattern.mask
        )


class TestDiscussionClaims:
    def test_every_campaign_single_class(self):
        """'For each configuration ... we found the same fault pattern
        class, regardless of the MAC unit into which we injected.'"""
        exhaustive = [
            GemmWorkload.square(16, OS),
            GemmWorkload.square(16, WS),
            ConvWorkload.paper_kernel(16, (3, 3, 3, 3)),
            ConvWorkload.paper_kernel(16, (3, 3, 3, 8)),
        ]
        for workload in exhaustive:
            result = Campaign(MESH, workload).run()
            assert result.is_single_class(), workload.describe()
        sampled = [
            GemmWorkload.square(112, OS),
            GemmWorkload.square(112, WS),
        ]
        for workload in sampled:
            result = Campaign(MESH, workload, sites=SAMPLED).run()
            assert result.is_single_class(), workload.describe()

    def test_patterns_fully_deterministic_and_predictable(self):
        """The determinism claim: the analytical predictor reproduces every
        exhaustive-campaign pattern exactly, for GEMM and conv alike."""
        for workload in (
            GemmWorkload.square(16, WS),
            GemmWorkload.square(16, OS),
            ConvWorkload.paper_kernel(16, (3, 3, 3, 8)),
        ):
            result = Campaign(MESH, workload).run()
            for experiment in result.experiments:
                predicted = predict_pattern(
                    experiment.site, result.plan, geometry=result.geometry
                )
                assert predicted.pattern_class is experiment.pattern_class
                assert np.array_equal(
                    predicted.support, experiment.pattern.gemm_mask()
                )

    def test_all_observed_classes_are_in_the_taxonomy(self):
        """'All the fault patterns we found are well-defined.'"""
        taxonomy = {
            PatternClass.SINGLE_ELEMENT,
            PatternClass.SINGLE_ELEMENT_MULTI_TILE,
            PatternClass.SINGLE_COLUMN,
            PatternClass.SINGLE_COLUMN_MULTI_TILE,
            PatternClass.SINGLE_CHANNEL,
            PatternClass.MULTI_CHANNEL,
            PatternClass.MASKED,
        }
        for workload in (
            GemmWorkload.square(16, OS),
            GemmWorkload.square(112, WS),
            ConvWorkload.paper_kernel(16, (3, 3, 3, 3)),
        ):
            result = Campaign(MESH, workload, sites=SAMPLED).run()
            assert set(result.census()) <= taxonomy
