"""Experiment D2 — determinism: the analytical predictor vs simulation.

Section IV Discussion: "the fault patterns are deterministic i.e., given
the hardware configurations ..., and the location of the stuck-at fault, we
can predict the fault patterns". This bench measures the predictor's exact
agreement with exhaustive simulated campaigns (class AND cell-level mask)
and its speed advantage — the property that lets application-level FI
tools skip RTL simulation entirely.
"""

import time

import numpy as np

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.predictor import predict_pattern
from repro.core.reports import format_table
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY

CONFIGS = {
    "GEMM 16 OS": GemmWorkload.square(16, OS),
    "GEMM 16 WS": GemmWorkload.square(16, WS),
    "GEMM 112 WS": GemmWorkload.square(112, WS),
    "Conv 3x3x3x8": ConvWorkload.paper_kernel(16, (3, 3, 3, 8)),
}


def run_validation():
    report = {}
    for name, workload in CONFIGS.items():
        sim_start = time.perf_counter()
        result = Campaign(MESH, workload).run()
        sim_seconds = time.perf_counter() - sim_start

        predict_start = time.perf_counter()
        class_hits = 0
        mask_hits = 0
        for experiment in result.experiments:
            predicted = predict_pattern(
                experiment.site, result.plan, geometry=result.geometry
            )
            if predicted.pattern_class is experiment.pattern_class:
                class_hits += 1
            if np.array_equal(
                predicted.support, experiment.pattern.gemm_mask()
            ):
                mask_hits += 1
        predict_seconds = time.perf_counter() - predict_start
        report[name] = (
            class_hits,
            mask_hits,
            len(result.experiments),
            sim_seconds,
            predict_seconds,
        )
    return report


def test_predictor_agreement_and_speedup(benchmark):
    report = run_once(benchmark, run_validation)
    print(banner("D2 — analytical predictor vs exhaustive simulation"))
    rows = []
    for name, (cls, mask, n, sim_s, pred_s) in report.items():
        speedup = sim_s / pred_s if pred_s > 0 else float("inf")
        rows.append(
            (
                name,
                f"{cls}/{n}",
                f"{mask}/{n}",
                f"{sim_s:.2f}s",
                f"{pred_s:.3f}s",
                f"{speedup:.0f}x",
            )
        )
    print(
        format_table(
            (
                "configuration",
                "class agreement",
                "exact-mask agreement",
                "simulate",
                "predict",
                "speedup",
            ),
            rows,
        )
    )
    for name, (cls, mask, n, _, _) in report.items():
        assert cls == n, name  # 100% class agreement
        assert mask == n, name  # 100% cell-exact agreement
