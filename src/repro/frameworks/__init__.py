"""Baseline framework engines for the paper's comparisons (Tables 2-4)."""

from repro.frameworks.capture import StepProgram, capture_step_program
from repro.frameworks.graph_extraction import (
    ExtractedProgram,
    GraphExtractionError,
    check_shapes,
    extract_program,
)
from repro.frameworks.engines import (
    FusedJitEngine,
    OpByOpEngine,
    StepTiming,
)
from repro.frameworks.mobile import (
    ALL_PLATFORMS,
    S4TF_MOBILE_PLATFORM,
    TF_MOBILE_PLATFORM,
    TFLITE_FUSED_PLATFORM,
    TFLITE_STANDARD_PLATFORM,
    MobilePlatform,
    MobileRunResult,
    run_mobile_fine_tuning,
)

__all__ = [
    "ExtractedProgram",
    "GraphExtractionError",
    "check_shapes",
    "extract_program",
    "StepProgram",
    "capture_step_program",
    "FusedJitEngine",
    "OpByOpEngine",
    "StepTiming",
    "ALL_PLATFORMS",
    "S4TF_MOBILE_PLATFORM",
    "TF_MOBILE_PLATFORM",
    "TFLITE_FUSED_PLATFORM",
    "TFLITE_STANDARD_PLATFORM",
    "MobilePlatform",
    "MobileRunResult",
    "run_mobile_fine_tuning",
]
