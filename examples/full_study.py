#!/usr/bin/env python3
"""Reproduce the paper's entire evaluation in one run.

Executes every Table I configuration (RQ1-RQ3, the 112x112 sizes included)
as an exhaustive 256-fault campaign, checks each outcome against the
analytical predictor, and prints the Section IV summary. This is the
programmatic equivalent of the study that took the paper 49 FPGA-hours.

Run:  python examples/full_study.py            (~1 minute)
      python examples/full_study.py --fast     (diagonal sweep, seconds)
"""

import sys
import time

from repro.core.sampling import diagonal_sites
from repro.core.study import run_paper_study
from repro.systolic import MeshConfig


def main() -> int:
    fast = "--fast" in sys.argv
    mesh = MeshConfig.paper()
    sites = diagonal_sites(mesh) if fast else None

    start = time.perf_counter()
    report = run_paper_study(
        mesh=mesh, sites=sites, include_large=not fast
    )
    elapsed = time.perf_counter() - start

    print(report.to_text())
    experiments = sum(len(e.result.experiments) for e in report.entries)
    print(
        f"\n{experiments} FI experiments across {len(report.entries)} "
        f"configurations in {elapsed:.1f} s "
        f"(the paper's campaigns took ~49 h on AWS F1 FPGAs)."
    )
    return 0 if report.all_match_theory else 1


if __name__ == "__main__":
    raise SystemExit(main())
