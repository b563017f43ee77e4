"""Training library: loops with automatic barriers, data-parallel training."""

from repro.runtime.parallel import ParallelDataParallelTrainer, ParallelStepStats
from repro.training.loop import History, StepResult, evaluate, train, train_step

__all__ = [
    "ParallelDataParallelTrainer",
    "ParallelStepStats",
    "History",
    "StepResult",
    "evaluate",
    "train",
    "train_step",
]
