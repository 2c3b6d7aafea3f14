"""Plain-text tables shaped like the paper's figures.

The formatting mirrors the layout of Figures 2-6 (request, Standard time,
Failure Oblivious time, Slowdown) and adds a security matrix table summarizing
the §4.x.2 results.  The absolute times are from this reproduction's simulated
servers; the columns and the slowdown ratios are what should be compared with
the paper.

:func:`format_trace_summary` renders the aggregate view of an exported
telemetry stream (``repro trace summary``); it is the same table whether the
counts came from a live run's sinks or from re-reading a JSONL export.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import RequestOutcome
from repro.harness.engine import FigureRow, SecurityCell
from repro.servers.profile import PROFILES
from repro.telemetry.summary import TraceSummary


def _format_cell(mean_ms: float, stdev_percent: float) -> str:
    if mean_ms != mean_ms:  # NaN: the build failed to boot or serve
        return "unavailable"
    # Two significant digits for the mean and whole percents for the spread:
    # run-to-run timer noise stays below this precision, so regenerated
    # tables only diff when a timing genuinely moved.
    return f"{mean_ms:9.2g} ms ± {stdev_percent:4.0f}%"


def format_figure_table(rows: Sequence[FigureRow], title: str = "") -> str:
    """Render one of Figures 2-6 as a text table."""
    if not rows:
        return "(no rows)"
    server = rows[0].server
    profile = PROFILES.get(server)
    number = profile.figure_number if profile is not None else None
    heading = title or (
        f"Figure {number or '?'}: Request Processing Times for "
        f"{server} (reproduction)"
    )
    lines = [heading, ""]
    header = f"{'Request':<14} {'Standard':>22} {'Failure Oblivious':>22} {'Slowdown':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        ratio = row.slowdown
        ratio_text = f"{ratio:8.2f}" if ratio == ratio else "     n/a"
        lines.append(
            f"{row.request_kind:<14} "
            f"{_format_cell(row.baseline.mean_ms, row.baseline.stdev_percent):>22} "
            f"{_format_cell(row.failure_oblivious.mean_ms, row.failure_oblivious.stdev_percent):>22} "
            f"{ratio_text:>9}"
        )
    return "\n".join(lines)


_OUTCOME_LABELS = {
    RequestOutcome.SERVED: "served",
    RequestOutcome.REJECTED_BY_ERROR_HANDLING: "rejected (anticipated error)",
    RequestOutcome.CRASHED: "CRASHED",
    RequestOutcome.TERMINATED_BY_CHECK: "terminated by check",
    RequestOutcome.EXPLOITED: "EXPLOITED",
    RequestOutcome.HUNG: "HUNG",
    None: "-",
}


def format_security_matrix(cells: Iterable[SecurityCell], title: str = "") -> str:
    """Render the security/resilience matrix (§4.2.2-§4.6.2) as a text table."""
    heading = title or "Security and resilience: behaviour with the documented error trigger"
    lines = [heading, ""]
    header = (
        f"{'Server':<20} {'Build':<18} {'Boot':<28} {'Attack request':<28} "
        f"{'Keeps serving users':<20} {'Errors logged':>13}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in cells:
        lines.append(
            f"{cell.server:<20} {cell.policy:<18} "
            f"{_OUTCOME_LABELS.get(cell.boot_outcome, str(cell.boot_outcome)):<28} "
            f"{_OUTCOME_LABELS.get(cell.attack_outcome, str(cell.attack_outcome)):<28} "
            f"{'yes' if cell.continued_service else 'NO':<20} "
            f"{cell.memory_errors_logged:>13}"
        )
    return "\n".join(lines)


def format_simple_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a generic table (used by throughput / stability / ablation reports)."""
    widths: List[int] = [len(str(h)) for h in headers]
    text_rows: List[List[str]] = []
    for row in rows:
        text_row = [str(value) for value in row]
        text_rows.append(text_row)
        for i, value in enumerate(text_row):
            widths[i] = max(widths[i], len(value))
    lines = []
    if title:
        lines.extend([title, ""])
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for text_row in text_rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(text_row)))
    return "\n".join(lines)


def format_trace_summary(summary: TraceSummary, title: str = "") -> str:
    """Render the aggregate view of one exported telemetry stream."""
    heading = title or "Telemetry trace summary"
    sections: List[str] = [heading, ""]
    overview_rows = [
        ("events", summary.total_events),
        ("scenarios", summary.scenarios),
        ("invalid accesses", summary.invalid_total),
        ("manufactured bytes", summary.manufactured_bytes),
        ("discarded bytes", summary.discarded_bytes),
        ("stored OOB bytes", summary.stored_bytes),
        ("redirected accesses", summary.redirected_accesses),
        ("allocations / frees", f"{summary.allocations} / {summary.frees}"),
        ("attack requests", summary.attack_requests),
    ]
    sections.append(format_simple_table(["measure", "value"], overview_rows))
    if summary.by_type:
        sections.append("")
        sections.append(format_simple_table(
            ["event type", "count"], sorted(summary.by_type.items()),
            title="Events by type",
        ))
    if summary.requests_by_outcome:
        sections.append("")
        sections.append(format_simple_table(
            ["outcome", "requests"], sorted(summary.requests_by_outcome.items()),
            title="Requests by outcome",
        ))
    if summary.invalid_by_site:
        sections.append("")
        sections.append(format_simple_table(
            ["site", "errors"], summary.invalid_by_site.most_common(10),
            title="Hottest error sites",
        ))
    if summary.servers:
        sections.append("")
        sections.append(format_simple_table(
            ["server", "events"], sorted(summary.servers.items()),
            title="Events by server",
        ))
    if summary.policies:
        sections.append("")
        sections.append(format_simple_table(
            ["build", "events"], sorted(summary.policies.items()),
            title="Events by build",
        ))
    return "\n".join(sections)
