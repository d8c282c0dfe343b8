"""Extension E5 — BIST coverage and diagnosis precision.

Two numbers the taxonomy makes possible:

* **BIST coverage** — fraction of (MAC, bit, polarity) stuck-at faults
  that the three-vector self-test exposes *and* locates exactly;
* **diagnosis precision** — how many candidate MACs the inverse predictor
  leaves per pattern class (1 for OS patterns, one mesh column for
  WS/conv patterns).
"""

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.diagnosis import diagnose
from repro.core.reports import format_table
from repro.faults import FaultInjector, FaultSite
from repro.mitigation import run_bist
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig(8, 8)


def run_bist_coverage():
    exposed = located = total = 0
    misses = []
    for row in range(MESH.rows):
        for col in range(MESH.cols):
            for bit in (0, 7, 15, 23, 31):
                for stuck in (0, 1):
                    injector = FaultInjector.single_stuck_at(
                        FaultSite(row, col, "sum", bit), stuck
                    )
                    report = run_bist(MESH, injector)
                    total += 1
                    if not report.passed:
                        exposed += 1
                        if (row, col) in report.faulty_macs:
                            located += 1
                    else:
                        misses.append((row, col, bit, stuck))
    return exposed, located, total, misses


def test_bist_coverage(benchmark):
    exposed, located, total, misses = run_once(benchmark, run_bist_coverage)
    print(banner("E5a — BIST stuck-at coverage (8x8 mesh, 5 bits x 2 polarities)"))
    print(
        format_table(
            ("metric", "value"),
            [
                ("faults injected", total),
                ("exposed by BIST", f"{exposed} ({100 * exposed / total:.1f}%)"),
                ("located exactly", f"{located} ({100 * located / total:.1f}%)"),
                ("escapes", len(misses)),
            ],
        )
    )
    if misses:
        print("escaped faults (bit, polarity):",
              sorted({(bit, stuck) for _, _, bit, stuck in misses}))
    # Every exposed fault is located at its true MAC.
    assert located == exposed
    # The three-vector set covers the overwhelming majority of the space;
    # any escapes concentrate in polarity/bit corners where all three test
    # patterns happen to agree with the stuck value.
    assert exposed / total > 0.9


def run_diagnosis_precision():
    rows = []
    configs = [
        ("GEMM OS", GemmWorkload.square(8, Dataflow.OUTPUT_STATIONARY)),
        ("GEMM WS", GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)),
        ("GEMM IS", GemmWorkload.square(8, Dataflow.INPUT_STATIONARY)),
        ("Conv 3x3x2x3", ConvWorkload.paper_kernel(6, (3, 3, 2, 3))),
    ]
    for name, workload in configs:
        result = Campaign(MESH, workload).run()
        candidate_counts = []
        hits = 0
        informative = 0
        for experiment in result.experiments:
            diagnosis = diagnose(experiment.pattern, MESH)
            if not diagnosis.candidate_macs:
                continue
            informative += 1
            candidate_counts.append(diagnosis.num_candidates)
            hits += diagnosis.contains(experiment.site.row, experiment.site.col)
        mean_candidates = (
            sum(candidate_counts) / len(candidate_counts)
            if candidate_counts
            else 0.0
        )
        rows.append((name, informative, hits, f"{mean_candidates:.1f}"))
    return rows


def test_diagnosis_precision(benchmark):
    rows = run_once(benchmark, run_diagnosis_precision)
    print(banner("E5b — diagnosis precision per configuration"))
    print(
        format_table(
            (
                "configuration",
                "diagnosable faults",
                "true site in candidates",
                "mean candidates",
            ),
            rows,
        )
    )
    for name, informative, hits, mean_candidates in rows:
        assert hits == informative, name  # never exonerates the true site
    by_name = {r[0]: r for r in rows}
    # OS diagnosis is exact (one candidate); WS/IS/conv pin one line of 8.
    assert by_name["GEMM OS"][3] == "1.0"
    assert by_name["GEMM WS"][3] == "8.0"
    assert by_name["GEMM IS"][3] == "8.0"
