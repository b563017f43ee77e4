"""Translation validation for the flat-NumPy codegen (self-check sweep 10).

The pipeline this package certifies: ``repro.hlo.codegen`` emits one flat
Python step function per scheduled module; :mod:`validator` symbolically
executes both the HLO schedule and the emitted function's AST into one
hash-consed term DAG (:mod:`normalform`) and proves the two roots
identical, locating the first divergent value when they are not.  Only a
certified translation runs; :mod:`miscompiles` seeds the five classic
codegen bugs the proof must catch, :mod:`models` bundles the real corpus,
and :mod:`report` cross-checks every certificate dynamically (interpreted
≡ generated, bit for bit).
"""

from repro.analysis.equivalence.miscompiles import MISCOMPILES, Miscompile
from repro.analysis.equivalence.models import CORPUS, EquivalenceProgram
from repro.analysis.equivalence.normalform import TermTable
from repro.analysis.equivalence.report import (
    EquivalenceReport,
    analyze_equivalence_program,
)
from repro.analysis.equivalence.validator import (
    ValidationResult,
    validate_translation,
)

__all__ = [
    "CORPUS",
    "EquivalenceProgram",
    "EquivalenceReport",
    "MISCOMPILES",
    "Miscompile",
    "TermTable",
    "ValidationResult",
    "analyze_equivalence_program",
    "validate_translation",
]
