"""The paper's primary contribution: the FI framework and pattern taxonomy.

This package turns the substrates (:mod:`repro.systolic`, :mod:`repro.ops`,
:mod:`repro.faults`) into the paper's experimental machinery:

* :class:`~repro.core.campaign.Campaign` — exhaustive/sampled SSF campaigns;
* :func:`~repro.core.fault_patterns.extract_pattern` — ground-truth diffing;
* :func:`~repro.core.classifier.classify_pattern` — the six-class taxonomy;
* :func:`~repro.core.predictor.predict_pattern` — analytical prediction of
  patterns without simulation (the determinism claim, and the hook for
  application-level FI tools);
* :mod:`~repro.core.sampling` — state-space modelling and Table I configs;
* :mod:`~repro.core.metrics` / :mod:`~repro.core.reports` — campaign
  reductions and report rendering.
"""
