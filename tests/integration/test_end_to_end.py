"""Cross-stack integration: accelerator, app-level FI, and DNN studies."""

import numpy as np
import pytest

from repro.appfi import AppLevelInjector, attach_permanent_fault
from repro.core.campaign import Campaign, GemmWorkload
from repro.core.fault_patterns import extract_pattern
from repro.faults import FaultInjector, FaultSet, FaultSite, StuckAtFault
from repro.gemmini import GemminiAccelerator
from repro.nn import (
    SystolicBackend,
    build_dense_classifier,
    make_digits,
)
from repro.ops import TiledGemm, reference_gemm
from repro.systolic import Dataflow, FunctionalSimulator, MeshConfig

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY


class TestAcceleratorCampaignAgreement:
    def test_accelerator_fault_pattern_matches_campaign(self):
        """The full Gemmini-like stack shows the same single-column pattern
        the bare-mesh campaign shows: the stack adds no fault behaviour."""
        ones = np.ones((16, 16), dtype=np.int64)
        site = FaultSite(4, 9, "sum", 20)
        injector = FaultInjector.single_stuck_at(site, 1)

        accel_out = GemminiAccelerator(MESH, injector=injector).matmul(
            ones, ones, dataflow=WS
        )
        golden = reference_gemm(ones, ones)
        accel_mask = golden != accel_out

        campaign = Campaign(MESH, GemmWorkload.square(16, WS), sites=[(4, 9)])
        campaign_mask = campaign.run().experiments[0].pattern.mask
        assert np.array_equal(accel_mask, campaign_mask)


class TestAppFiVsRtl:
    def test_pattern_support_identical(self):
        """The paper's proposal validated end to end: the application-level
        injector corrupts exactly the cells the RTL-equivalent simulator
        corrupts, for the anti-masking workload."""
        ones = np.ones((48, 48), dtype=np.int64)
        golden = reference_gemm(ones, ones)
        site = FaultSite(7, 3, "sum", 20)

        rtl = TiledGemm(
            FunctionalSimulator(MESH, FaultInjector.single_stuck_at(site, 1))
        )(ones, ones, WS)
        rtl_mask = extract_pattern(golden, rtl.output, plan=rtl.plan).mask

        app = AppLevelInjector(MESH, WS, bit=20, mode="stuck1")
        app_out = app.inject_gemm(golden, k=48, site=site)
        app_mask = golden != app_out

        assert np.array_equal(rtl_mask, app_mask)

    def test_appfi_runs_mesh_sizes_the_fpga_could_not(self):
        """Scalability: a 128x128 hardware model (10x the paper's FPGA
        capacity) derives patterns instantly at app level."""
        big = MeshConfig(rows=128, cols=128)
        injector = AppLevelInjector(big, WS, bit=20)
        output = np.zeros((256, 256), dtype=np.int64)
        corrupted = injector.inject_gemm(
            output, k=256, site=FaultSite(77, 100, "sum", 20)
        )
        cols = sorted(set(np.where(output != corrupted)[1]))
        assert cols == [100, 228]


class TestDnnDegradationStudy:
    """The Zhang et al. motivation from the paper's introduction."""

    def test_accuracy_drops_with_faulty_macs(self):
        x, y = make_digits(150, noise=0.03, seed=11)
        model = build_dense_classifier()
        baseline = model.evaluate(x, y)
        assert baseline > 0.85

        rng = np.random.default_rng(0)
        accuracies = []
        for num_faults in (1, 4, 8):
            sites = set()
            while len(sites) < num_faults:
                sites.add(
                    (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
                )
            faults = FaultSet.from_iterable(
                StuckAtFault(site=FaultSite(r, c, "sum", 28), stuck_value=1)
                for r, c in sites
            )
            model.set_backend(SystolicBackend(MESH, FaultInjector(faults), WS))
            accuracies.append(model.evaluate(x, y))

        # Even a single faulty MAC (0.4% of the mesh) craters accuracy —
        # the paper's motivating observation.
        assert accuracies[0] < baseline - 0.3
        assert min(accuracies) <= accuracies[0]

    def test_app_level_and_rtl_level_fi_agree_on_verdict(self):
        x, y = make_digits(150, noise=0.03, seed=12)
        site = FaultSite(0, 4, "sum", 28)

        rtl_model = build_dense_classifier()
        rtl_model.set_backend(
            SystolicBackend(MESH, FaultInjector.single_stuck_at(site, 1), WS)
        )
        rtl_acc = rtl_model.evaluate(x, y)

        app_model = build_dense_classifier()
        attach_permanent_fault(app_model, MESH, site, bit=28)
        app_acc = app_model.evaluate(x, y)

        golden = build_dense_classifier().evaluate(x, y)
        # Both abstraction levels agree the fault is catastrophic.
        assert rtl_acc < golden - 0.3
        assert app_acc < golden - 0.3
