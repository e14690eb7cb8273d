"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.experiments.workloads` — the seeded 10-graph evaluation
  suites for DFG Type-1 and Type-2;
* :mod:`repro.experiments.sweep` — the sweep engine: serializable jobs,
  inline or ``multiprocessing`` batch execution, and the content-hash
  result store it shares with the service;
* :mod:`repro.experiments.runner` — policy × graph × α × transfer-rate
  sweeps on top of the engine;
* :mod:`repro.experiments.tables` — Tables 8–13, 15, 16;
* :mod:`repro.experiments.figures` — Figures 5–12;
* :mod:`repro.experiments.ablations` — our additional design-choice
  studies;
* :mod:`repro.experiments.report` — plain-text rendering.
"""

from repro.experiments.workloads import (
    DEFAULT_SEED,
    paper_type1_suite,
    paper_type2_suite,
    paper_suite,
)
from repro.experiments.runner import ExperimentRunner, RunRecord
from repro.experiments.sweep import (
    JobResult,
    PolicySpec,
    ResultCache,
    SimSettings,
    SweepEngine,
    SweepJob,
    make_job,
)
from repro.experiments.report import TableResult, FigureResult, render_table, render_figure
from repro.experiments import tables, figures, ablations, extensions

__all__ = [
    "DEFAULT_SEED",
    "paper_type1_suite",
    "paper_type2_suite",
    "paper_suite",
    "ExperimentRunner",
    "RunRecord",
    "JobResult",
    "PolicySpec",
    "ResultCache",
    "SimSettings",
    "SweepEngine",
    "SweepJob",
    "make_job",
    "TableResult",
    "FigureResult",
    "render_table",
    "render_figure",
    "tables",
    "figures",
    "ablations",
    "extensions",
]
