"""The unit of lint output: one :class:`Finding` per rule violation.

A finding pins a rule to a file position and carries a human-readable
message. Findings sort by (path, line, rule) so reports are stable
across runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``suppressed`` marks findings covered by a per-function
    ``# lint: hot-ok(<rule>)`` comment: still reported (so suppressed
    debt stays countable) but excluded from pass/fail decisions.
    """

    path: str  # posix-style, relative to the scan root
    line: int
    rule_id: str
    message: str
    suppressed: bool = False

    def render(self) -> str:
        note = " (suppressed: hot-ok)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}{note}"


def split_suppressed(
    findings: Iterable[Finding],
) -> tuple[list[Finding], list[Finding]]:
    """Partition findings into (active, suppressed), each sorted."""
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in sorted(findings):
        (suppressed if finding.suppressed else active).append(finding)
    return active, suppressed


def render_findings(findings: Iterable[Finding]) -> str:
    """Human-readable report, one finding per line, stably sorted."""
    return "\n".join(f.render() for f in sorted(findings))


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report: a JSON array of finding objects."""
    return json.dumps([asdict(f) for f in sorted(findings)], indent=2)


def _github_escape(text: str) -> str:
    """Escape per GitHub workflow-command rules (data portion)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def findings_to_github(findings: Iterable[Finding]) -> str:
    """GitHub Actions annotations: ``::error``/``::notice`` commands.

    Active findings annotate as errors; suppressed ones as notices so
    the debt is visible in the checks UI without failing the job.
    """
    lines = []
    for f in sorted(findings):
        level = "notice" if f.suppressed else "error"
        title = _github_escape(f.rule_id)
        message = _github_escape(f.message)
        lines.append(
            f"::{level} file={f.path},line={f.line},title={title}::{message}"
        )
    return "\n".join(lines)
