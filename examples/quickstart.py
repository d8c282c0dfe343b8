#!/usr/bin/env python3
"""Quickstart: inject one stuck-at fault and watch the pattern appear.

Builds the paper's 16x16 INT8 systolic array, injects a single stuck-at-1
fault into the adder output of one MAC unit (the paper's fault model), runs
a GEMM under both dataflows, and prints the resulting fault patterns with
their taxonomy classes — the OS single-element vs WS single-column contrast
of the paper's RQ1.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import render_gemm_pattern
from repro.core.campaign import Campaign, FaultSpec, GemmWorkload
from repro.core.predictor import predict_pattern
from repro.systolic import Dataflow, MeshConfig


def main() -> None:
    mesh = MeshConfig.paper()  # 16x16, INT8 operands, INT32 accumulators
    fault = FaultSpec(signal="sum", bit=20, stuck_value=1)
    print(f"mesh : {mesh.rows}x{mesh.cols} ({mesh.input_dtype})")
    print(f"fault: {fault.describe()} at MAC(5, 9)\n")

    for dataflow in Dataflow:
        workload = GemmWorkload.square(16, dataflow)
        campaign = Campaign(mesh, workload, fault_spec=fault, sites=[(5, 9)])
        result = campaign.run()
        experiment = result.experiments[0]

        print(f"--- {workload.describe()} ---")
        print(f"pattern class : {experiment.pattern_class}")
        print(f"corrupted     : {experiment.num_corrupted} of 256 elements")
        print(render_gemm_pattern(experiment.pattern))

        # The same pattern, predicted analytically — no simulation at all.
        predicted = predict_pattern(experiment.site, result.plan)
        agrees = np.array_equal(predicted.support, experiment.pattern.mask)
        print(f"analytical prediction agrees exactly: {agrees}\n")


if __name__ == "__main__":
    main()
