"""Extension E1 — the input-stationary dataflow the paper names but skips.

Section II-D: "There are also other data flow mapping schemes ... such as
input stationary and hybrid schemes". This bench completes RQ1's
comparison with the third classical scheme: exhaustive campaigns under
OS, WS and IS, showing that IS produces the row-dual of the WS column
pattern and sits at the same fault-tolerance level, leaving OS the clear
winner — evidence that the paper's OS-vs-WS conclusion generalises.
"""

from repro.analysis import summary_table
from repro.core.campaign import Campaign, GemmWorkload
from repro.core.classifier import PatternClass
from repro.core.metrics import fault_tolerance_ranking
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()


def run_three_dataflows():
    return {
        str(dataflow): Campaign(
            MESH, GemmWorkload.square(16, dataflow)
        ).run()
        for dataflow in Dataflow
    }


def test_three_dataflow_comparison(benchmark):
    campaigns = run_once(benchmark, run_three_dataflows)
    print(banner("E1 — OS vs WS vs IS (extension beyond the paper's RQ1)"))
    print(summary_table(campaigns))
    ranking = fault_tolerance_ranking(campaigns)
    print("\nfault-tolerance ranking (mean corrupted cells):")
    for name, cells in ranking:
        print(f"  {name}: {cells:.2f}")

    assert campaigns["OS"].dominant_class() is PatternClass.SINGLE_ELEMENT
    assert campaigns["WS"].dominant_class() is PatternClass.SINGLE_COLUMN
    assert campaigns["IS"].dominant_class() is PatternClass.SINGLE_ROW
    for result in campaigns.values():
        assert result.is_single_class()
    # IS and WS tie on a square output (16 cells = one row = one column);
    # OS remains 16x more fault tolerant than either.
    assert ranking[0][0] == "OS"
    assert campaigns["WS"].mean_corrupted_cells() == 16.0
    assert campaigns["IS"].mean_corrupted_cells() == 16.0


def test_is_tiling_duality(benchmark):
    """IS under tiling: corrupted rows at mesh stride — the transpose of
    Fig. 3c's corrupted columns."""

    def run_tiled():
        return Campaign(
            MESH, GemmWorkload.square(112, Dataflow.INPUT_STATIONARY),
            sites=[(5, 9)],
        ).run()

    result = run_once(benchmark, run_tiled)
    experiment = result.experiments[0]
    print(banner("E1b — IS tiling: the row-dual of Fig. 3c"))
    print(f"class: {experiment.pattern_class}")
    print(f"corrupted rows: {experiment.pattern.corrupted_rows()}")
    assert experiment.pattern_class is PatternClass.SINGLE_ROW_MULTI_TILE
    assert experiment.pattern.corrupted_rows() == tuple(
        9 + 16 * t for t in range(7)
    )
    assert experiment.num_corrupted == 7 * 112
