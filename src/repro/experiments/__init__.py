"""Per-experiment harnesses regenerating every table and figure of the
paper's evaluation (Section 5).  Each module documents the paper's numbers,
the substitutions made, and the shape being reproduced; EXPERIMENTS.md
records paper-vs-measured for all of them."""

from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.figure9 import Figure9Point, render_figure9, run_figure9
from repro.experiments.table1 import (
    FULL_TPU_WORKLOAD,
    SCALED_TPU_WORKLOAD,
    TPUWorkload,
    run_overlap_ablation,
    run_table1,
)
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import FULL_WORKLOAD, SCALED_WORKLOAD, Workload, run_table3
from repro.experiments.table4 import run_table4

__all__ = [
    "Figure4Result",
    "run_figure4",
    "Figure9Point",
    "render_figure9",
    "run_figure9",
    "FULL_TPU_WORKLOAD",
    "SCALED_TPU_WORKLOAD",
    "TPUWorkload",
    "run_overlap_ablation",
    "run_table1",
    "run_table2",
    "FULL_WORKLOAD",
    "SCALED_WORKLOAD",
    "Workload",
    "run_table3",
    "run_table4",
]
