"""RQ1 — data-flow mapping schemes (Section IV-A1).

Exhaustive 256-experiment campaigns on the 16x16 mesh for OS and WS GEMM.
Reproduces: OS corrupts exactly one output element per fault, WS corrupts
an entire column; OS is therefore the more fault-tolerant dataflow
(consistent with Burel et al., as the paper notes).
"""

from repro.analysis import summary_table
from repro.core.campaign import Campaign, GemmWorkload
from repro.core.classifier import PatternClass
from repro.core.metrics import fault_tolerance_ranking
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()


def run_rq1():
    return {
        str(dataflow): Campaign(
            MESH, GemmWorkload.square(16, dataflow)
        ).run()
        for dataflow in Dataflow
    }


def test_rq1_dataflow_campaigns(benchmark):
    campaigns = run_once(benchmark, run_rq1)
    print(banner("RQ1 — OS vs WS, GEMM 16x16, exhaustive 256-fault campaigns"))
    print(summary_table(campaigns))

    ranking = fault_tolerance_ranking(campaigns)
    print("\nfault-tolerance ranking (mean corrupted cells, lower=better):")
    for name, cells in ranking:
        print(f"  {name}: {cells:.2f}")

    os_result = campaigns["OS"]
    ws_result = campaigns["WS"]
    # Paper: a single fault corrupts one element under OS...
    assert os_result.dominant_class() is PatternClass.SINGLE_ELEMENT
    assert os_result.mean_corrupted_cells() == 1.0
    # ...and an entire column under WS.
    assert ws_result.dominant_class() is PatternClass.SINGLE_COLUMN
    assert ws_result.mean_corrupted_cells() == 16.0
    # Both configurations are single-class across all 256 MACs.
    assert os_result.is_single_class() and ws_result.is_single_class()
    # OS wins the fault-tolerance comparison by 16x.
    assert ranking[0][0] == "OS"
    assert ranking[1][1] / ranking[0][1] == 16.0
