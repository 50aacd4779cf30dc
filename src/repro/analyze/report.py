"""Lint findings and their machine- and human-readable renderings.

A :class:`Finding` pins one hazard to a (file, line) pair.  Findings
carry their suppression state rather than being dropped when suppressed,
so the JSON report is a complete audit trail: a reviewer can see every
``# detlint: ok(...)`` that is actually load-bearing (and
:func:`unused_suppressions` reports the ones that are not).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Finding:
    """One hazard flagged by one rule at one source location."""

    path: str
    """File the finding is in (as given to the linter)."""

    line: int
    """1-indexed source line."""

    col: int
    """0-indexed column of the flagged expression."""

    rule: str
    """Rule id (kebab-case, e.g. ``set-iter``)."""

    message: str
    """Human-readable statement of the hazard."""

    suppressed: bool = False
    """True when the line carries ``# detlint: ok(<rule>)``."""

    def render(self) -> str:
        tag = "  [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{tag}"


@dataclass(frozen=True)
class LintReport:
    """Everything one lint invocation produced."""

    findings: List[Finding]
    """All findings, suppressed ones included, in (path, line) order."""

    files_checked: int

    unused_suppressions: List[Finding]
    """Suppression comments whose rule never fired on their line,
    reported as findings of the ``unused-suppression`` rule (a stale
    ``ok(...)`` hides nothing today but will silently hide a future
    regression, so it must be removed)."""

    @property
    def active(self) -> List[Finding]:
        """The findings that gate CI: unsuppressed hazards plus any
        unused suppressions."""
        live = [f for f in self.findings if not f.suppressed]
        return live + list(self.unused_suppressions)

    @property
    def ok(self) -> bool:
        return not self.active

    def render(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f.render())
        for f in self.unused_suppressions:
            lines.append(f.render())
        suppressed = sum(1 for f in self.findings if f.suppressed)
        live = len(self.findings) - suppressed
        lines.append(
            f"detlint: {self.files_checked} files, {live} finding(s), "
            f"{suppressed} suppressed, "
            f"{len(self.unused_suppressions)} stale suppression(s)"
            f"{' / OK' if self.ok else ''}"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "ok": self.ok,
            "findings": [asdict(f) for f in self.findings],
            "unused_suppressions": [asdict(f) for f in self.unused_suppressions],
        }

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "LintReport":
        """Inverse of :meth:`to_json_dict` (the derived ``ok`` field is
        recomputed, everything else round-trips field-for-field)."""
        def as_finding(d: Dict[str, object]) -> Finding:
            return Finding(
                path=str(d["path"]),
                line=int(d["line"]),  # type: ignore[arg-type]
                col=int(d["col"]),  # type: ignore[arg-type]
                rule=str(d["rule"]),
                message=str(d["message"]),
                suppressed=bool(d["suppressed"]),
            )

        return cls(
            findings=[as_finding(d) for d in doc["findings"]],  # type: ignore[union-attr]
            files_checked=int(doc["files_checked"]),  # type: ignore[arg-type]
            unused_suppressions=[
                as_finding(d)
                for d in doc["unused_suppressions"]  # type: ignore[union-attr]
            ],
        )


def merge_sections(sections: Dict[str, LintReport]) -> Dict[str, object]:
    """The sectioned JSON document written by ``--lint --json``: one
    :class:`LintReport` dict per section (``src`` for the simulator
    package, ``helpers`` for the test/benchmark trees) plus the overall
    gate verdict."""
    return {
        "ok": all(r.ok for r in sections.values()),
        "sections": {
            name: sections[name].to_json_dict() for name in sorted(sections)
        },
    }


def sections_from_json_dict(
    doc: Dict[str, object],
) -> Dict[str, LintReport]:
    """Inverse of :func:`merge_sections`."""
    sections_doc: Dict[str, Dict[str, object]] = doc["sections"]  # type: ignore[assignment]
    return {
        name: LintReport.from_json_dict(d) for name, d in sections_doc.items()
    }


def merge_reports(reports: Sequence[LintReport]) -> LintReport:
    """Fold per-file reports into one, preserving file order."""
    findings: List[Finding] = []
    unused: List[Finding] = []
    for r in reports:
        findings.extend(r.findings)
        unused.extend(r.unused_suppressions)
    return LintReport(
        findings=findings,
        files_checked=sum(r.files_checked for r in reports),
        unused_suppressions=unused,
    )
