"""repro — reliability assessment of systolic arrays against stuck-at faults.

A full reproduction of Agarwal et al., "Towards Reliability Assessment of
Systolic Arrays against Stuck-at Faults" (DSN 2023, Disrupt track), as a
Python library:

* :mod:`repro.datatypes` — fixed-width two's-complement arithmetic, the
  leaf every datapath layer builds on;
* :mod:`repro.systolic` — a cycle-level, bit-accurate systolic-array
  simulator (OS/WS dataflows, INT8 datapath, named MAC signals) plus a
  cross-validated vectorised engine;
* :mod:`repro.faults` — stuck-at / transient / multi-fault models and the
  injection overlay;
* :mod:`repro.ops` — operation tiling, tiled GEMM and im2col convolution;
* :mod:`repro.gemmini` — a functional Gemmini-like accelerator stack;
* :mod:`repro.core` — the FI campaign framework, fault-pattern extraction,
  the six-class taxonomy, and the analytical pattern predictor;
* :mod:`repro.appfi` — application-level FI with an on-the-fly
  systolic-array hardware model (the paper's proposed LLTFI integration);
* :mod:`repro.nn` — a small quantised DNN inference engine for the
  accuracy-degradation and masking studies;
* :mod:`repro.analysis` — spatial statistics and Fig. 3-style rendering;
* :mod:`repro.checks` — AST-based static analysis enforcing the
  cross-layer invariants (bit-accuracy, signal registry, determinism,
  export hygiene, dataclass contracts) over this code base itself.

Quickstart
----------
>>> from repro.core.campaign import Campaign, GemmWorkload
>>> from repro.systolic import Dataflow, MeshConfig
>>> mesh = MeshConfig.paper()                      # 16x16 INT8
>>> workload = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
>>> result = Campaign(mesh, workload).run()        # 256 FI experiments
>>> str(result.dominant_class())
'single-column'
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
