"""One corpus / report / sweep protocol for every analysis subsystem.

Every subsystem certifies the same way: a seeded **corpus** of programs
with known verdicts, an ``analyze`` function turning one program into a
**report** (static verdicts plus a dynamic cross-check), and a **sweep**
that walks the corpus and holds each report to its program's
expectation.  This module owns those three shapes so that
``python -m repro.analysis --X all`` and ``--self-check`` judge a program
with the same code (:meth:`Report.problems`) and cannot drift:

* :class:`CorpusProgram` / :class:`StepProgram` — what a corpus entry is;
  :class:`Corpus` — the ordered table with the one name lookup;
* :class:`Report` — the surface the sweep reads (``diagnostics``,
  ``verdicts()``, ``verdict_matches``, ``cross_check_ok``,
  ``located_errors()``, ``render()``, ``to_json()``);
* :class:`Sweep` — one row of ``repro.analysis.__main__.SUBSYSTEMS``.

Adding a subsystem is a corpus, an ``analyze`` function and a row
(DESIGN.md §8).
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Optional

from repro.errors import Diagnostic, SourceLocation

# ---------------------------------------------------------------------------
# Corpus entries and the corpus table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusProgram:
    """One corpus entry: a named program plus the verdict it must get."""

    name: str
    description: str
    #: The verdict the analysis must produce (``"clean"`` or a hazard
    #: class); ``None`` marks an exemplar that is addressable by name but
    #: not held to an expectation, and so not part of the ``all`` sweep.
    expect: Optional[str]


@dataclass(frozen=True)
class StepProgram(CorpusProgram):
    """A lazy-tensor step program: ``build()`` returns ``(device,
    step_fn)`` on a fresh device and ``step_fn(step)`` runs one step."""

    steps: int
    build: Callable[[], tuple]

    @property
    def location(self) -> SourceLocation:
        """The ``def`` line of ``build`` — where diagnostics about this
        program point."""
        code = inspect.unwrap(self.build).__code__
        return SourceLocation(code.co_filename, code.co_firstlineno)


class UnknownProgram(LookupError):
    """A name that no entry (or group) of a corpus answers to."""


class Corpus(Sequence):
    """An ordered corpus; iteration and indexing yield its entries.

    Entries are :class:`CorpusProgram` instances (the table itself reads
    only ``name`` and ``expect``).  ``kind`` words the unknown-name error
    ("trace program", ...).  ``groups`` are extra names resolving to
    several entries — the concurrency target ``corpus``.
    """

    def __init__(
        self,
        kind: str,
        *entries,
        groups: Optional[Mapping[str, Sequence]] = None,
    ) -> None:
        self.kind = kind
        self._entries = entries
        self._groups = dict(groups or {})
        #: name -> entry, in corpus order.
        self.by_name = {entry.name: entry for entry in self._entries}

    def __getitem__(self, index):
        return self._entries[index]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def names(self) -> list[str]:
        """Every accepted name except ``all``: groups, then entries sorted."""
        return list(self._groups) + sorted(self.by_name)

    def unknown(self, name: str) -> str:
        return (
            f"unknown {self.kind} {name!r}; bundled names: "
            + ", ".join(self.names + ["all"])
        )

    def lookup(self, name: str) -> list:
        """The entries ``name`` selects: one entry, a group, or — for
        ``all`` — every entry that carries an expectation."""
        if name == "all":
            return [e for e in self._entries if e.expect is not None]
        if name in self._groups:
            return list(self._groups[name])
        if name in self.by_name:
            return [self.by_name[name]]
        raise UnknownProgram(self.unknown(name))


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def verdict_of(diag: Diagnostic, prefixes) -> Optional[str]:
    """The verdict label of ``diag`` under a ``(message prefix, label)``
    table, or ``None`` when no prefix matches."""
    for prefix, label in prefixes:
        if diag.message.startswith(prefix):
            return label
    return None


def diag_json(diag: Diagnostic) -> dict:
    loc = getattr(diag, "location", None)
    return {
        "severity": diag.severity,
        "message": diag.message,
        "file": loc.filename if loc is not None else None,
        "line": loc.line if loc is not None else None,
    }


class Report:
    """What a sweep reads off one analyzed program.

    A subclass supplies ``name``, ``expect`` (``None`` when the program
    came from outside a corpus), ``diagnostics``, ``cross_check_ok`` and
    ``render()``; the rest is derived here, once.
    """

    name: str
    expect: Optional[str]
    diagnostics: list[Diagnostic]
    cross_check_ok: bool

    #: ``(message prefix, verdict label)`` pairs driving :meth:`verdicts`.
    verdict_prefixes: ClassVar[tuple[tuple[str, str], ...]] = ()
    #: Whether hazards beyond the expected one may co-occur with it.
    extra_verdicts_ok: ClassVar[bool] = False
    #: Key the program's name is emitted under by :meth:`to_json`.
    json_label: ClassVar[str] = "program"

    def verdicts(self) -> set[str]:
        """The hazard classes found (``{"clean"}`` when none)."""
        found = {
            verdict
            for d in self.diagnostics
            if d.is_error
            and (verdict := verdict_of(d, self.verdict_prefixes)) is not None
        }
        return found or {"clean"}

    @property
    def verdict_matches(self) -> bool:
        if self.expect is None:
            return True
        if self.extra_verdicts_ok:
            # "clean" is only ever reported alone, so membership is exact
            # for clean programs and permissive only among hazards.
            return self.expect in self.verdicts()
        return self.verdicts() == {self.expect}

    def located_errors(self) -> list[Diagnostic]:
        """Error diagnostics that point at a source line."""
        return [
            d
            for d in self.diagnostics
            if d.is_error and d.location is not None and d.location.line > 0
        ]

    def problems(self) -> list[str]:
        """Why this report fails its program's expectation (empty: it
        holds).  The one judgment ``--X all`` and ``--self-check`` share."""
        found: list[str] = []
        if not self.verdict_matches:
            found.append(
                f"expected verdict {self.expect!r}, got {sorted(self.verdicts())}"
            )
        elif self.expect not in (None, "clean") and not self.located_errors():
            found.append("hazard caught but no diagnostic carries a source location")
        errors = [d for d in self.diagnostics if d.is_error]
        if self.expect == "clean" and errors:
            found.append("false positive: " + errors[0].message)
        if not self.cross_check_ok:
            found.append("static verdicts diverge from the dynamic cross-check")
        return found

    def json_details(self) -> dict:
        """Subsystem-specific keys appended to :meth:`to_json`."""
        return {"diagnostics": [diag_json(d) for d in self.diagnostics]}

    def to_json(self) -> dict:
        return {
            self.json_label: self.name,
            "expect": self.expect,
            "verdicts": sorted(self.verdicts()),
            "verdict_matches": self.verdict_matches,
            "cross_check_ok": self.cross_check_ok,
            "ok": not self.problems(),
            **self.json_details(),
        }


class StepReport(Report):
    """A report about one :class:`StepProgram`: ``program`` plus one entry
    of ``checks`` (each carrying its own ``diagnostics``) per unique trace
    the program cut."""

    program: StepProgram
    checks: list

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def expect(self) -> Optional[str]:
        return self.program.expect

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for check in self.checks for d in check.diagnostics]


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """One subsystem: its CLI flag, its self-check sweep, and — behind
    ``module`` — how a corpus program becomes a judged report.

    ``module`` is imported on first use, so a run pays only for the
    subsystem it names (and registers only that subsystem's primitives).
    It provides ``CORPUS``.  A row driven by the shared loops
    (``__main__.run_sweep``, ``selfcheck._check_sweep``) also provides
    ``analyze(program) -> Report`` and ``tally(report, counters)``, which
    adds a passing report's evidence to the self-check counters; it may
    provide ``analyze_function(fn) -> Report`` for ``module:function``
    arguments and ``detail(report)`` for extra text under a single
    selected program.  Only ``--lint``, which has no corpus, keeps its
    own CLI runner (``run``).
    """

    flag: str
    metavar: str
    help: str
    #: Which self-check sweep this subsystem backs.
    sweep: int
    module: Optional[str] = None
    run: Optional[Callable[[object], int]] = None
    #: Self-check counter names: programs analyzed / hazards caught.
    checked: Optional[str] = None
    caught: Optional[str] = None
    #: Footer wording: what was counted, then the claim as it reads when
    #: every program passed and when one did not.
    counted: str = "program(s) analyzed"
    holds: str = ""
    fails: str = ""
    #: Label of the per-program "expected verdict" line.
    expect_label: str = "  expected verdict: "

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def _hook(self, name: str):
        if self.module is None:
            return None
        return getattr(importlib.import_module(self.module), name, None)

    # What ``module`` provides, under its conventional names.
    corpus = property(lambda self: self._hook("CORPUS"))
    analyze = property(lambda self: self._hook("analyze"))
    tally = property(lambda self: self._hook("tally"))
    analyze_function = property(lambda self: self._hook("analyze_function"))
    detail = property(lambda self: self._hook("detail"))
