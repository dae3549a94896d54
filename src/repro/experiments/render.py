"""Plain-text rendering shared by the experiment drivers.

Every study renders the same rows/series the paper's table or figure
reports through this helper, so outputs stay uniform and greppable.
"""

from __future__ import annotations

from repro.errors import ExperimentError


def render_table(
    title: str,
    headers: list[str],
    rows: list[list[object]],
    note: str = "",
) -> str:
    """Render an ASCII table with a title rule and optional footnote."""
    if not headers:
        raise ExperimentError("a table needs headers")
    for row in rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [len(header) for header in headers]
    rendered_rows = []
    for row in rows:
        rendered = []
        for index, value in enumerate(row):
            text = f"{value:.2f}" if isinstance(value, float) else str(value)
            widths[index] = max(widths[index], len(text))
            rendered.append(text)
        rendered_rows.append(rendered)

    lines = [title, "=" * len(title)]
    header_line = "  ".join(
        header.rjust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for rendered in rendered_rows:
        lines.append(
            "  ".join(text.rjust(widths[index]) for index, text in enumerate(rendered))
        )
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)
