"""Experiment T1 — Table I and the Section III-A state-space estimate.

Regenerates the paper's parameter-configuration table (the workload grid of
RQ1-RQ3) and checks the '131K FI configurations' arithmetic behind the
paper's sampling argument.
"""

from repro.core.reports import format_table
from repro.core.sampling import paper_configurations, paper_state_space

from _common import banner, run_once


def build_table1():
    configs = paper_configurations()
    rows = []
    for rq, workloads in configs.items():
        for workload in workloads:
            rows.append((rq, workload.describe()))
    return rows


def test_table1_configuration_grid(benchmark):
    rows = run_once(benchmark, build_table1)
    print(banner("Table I — parameter configurations (regenerated)"))
    print(format_table(("RQ", "configuration"), rows))

    by_rq = {}
    for rq, desc in rows:
        by_rq.setdefault(rq, []).append(desc)
    # RQ1 varies the dataflow on a fixed 16x16 GEMM.
    assert len(by_rq["RQ1"]) == 2
    assert any("OS" in d for d in by_rq["RQ1"])
    assert any("WS" in d for d in by_rq["RQ1"])
    # RQ2 contrasts GEMM with the two paper kernels.
    assert any("3x3x3x3" in d for d in by_rq["RQ2"])
    assert any("3x3x3x8" in d for d in by_rq["RQ2"])
    # RQ3 includes the 112x112 operands.
    assert any("112" in d for d in by_rq["RQ3"])


def test_state_space_cardinality(benchmark):
    space = run_once(benchmark, paper_state_space)
    total = space.total_configurations
    print(banner("Section III-A — FI state-space size"))
    print(
        format_table(
            ("component", "count"),
            [
                ("MAC units (16x16)", space.mesh.num_macs),
                ("adder-output bits", space.sites_per_mac),
                ("fault sites", space.num_fault_sites),
                ("stuck polarities", len(space.stuck_values)),
                ("dataflows", len(space.dataflows)),
                ("operation types", space.num_operation_types),
                ("operation configs", space.num_operation_configs),
                ("TOTAL configurations", total),
            ],
        )
    )
    print(f"\npaper's estimate: ~131K  |  ours: {total}")
    assert total == 131072  # "131K different FI configurations"
