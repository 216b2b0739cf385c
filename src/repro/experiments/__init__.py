"""Experiment drivers: one module per paper evaluation section.

- :mod:`repro.experiments.scenario` — builds a simulated IPFS world
  from a synthetic population (the "live network" substitute).
- :mod:`repro.experiments.perf` — the six-region publication/retrieval
  experiment (Section 4.3/6.1/6.2: Table 1, Table 4, Figs 9 & 10).
- :mod:`repro.experiments.deployment` — crawler-based deployment
  analysis (Section 5: Figs 4a, 5, 7, 8, Tables 2 & 3).
- :mod:`repro.experiments.datasets` — the datasets the figures read,
  the gateway day among them (Sections 4.2/6.3: Figs 4b, 6, 11,
  Table 5), served by :func:`repro.gateway.replay.replay_trace`.
- :mod:`repro.experiments.replay` — graded batched full-day replay
  (the 7.1 M-request day at paper scale, Table 5 / Fig 11).
- :mod:`repro.experiments.report` — text rendering of tables/figures.
"""

from repro.experiments.scenario import Scenario, ScenarioConfig, build_scenario

__all__ = ["Scenario", "ScenarioConfig", "build_scenario"]
