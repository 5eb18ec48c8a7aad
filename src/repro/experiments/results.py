"""Result tables: ordered rows with serialization and shared reductions.

A :class:`ResultTable` is the common currency of the experiments subsystem:
executors produce one, the cache stores its rows, the CLI dumps it, and the
analysis layer's reductions (normalize-to-max, geometric-mean speed-up) are
methods on it instead of being reimplemented per figure.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of a non-empty sequence of positive ratios.

    Computed in log space: the naive running product underflows to 0.0 (or
    overflows to inf) for a few hundred uniformly small (large) ratios, which
    long sweeps routinely produce.  Non-positive values have no geometric
    mean and are rejected explicitly instead of silently collapsing the
    product to zero.
    """
    if not values:
        raise ConfigurationError("geometric mean of an empty sequence")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ConfigurationError(
                f"geometric mean requires positive values, got {value}"
            )
        total += math.log(value)
    return math.exp(total / len(values))


class ResultTable:
    """An ordered table of result rows (plain dictionaries).

    Row order is the trial expansion order of the spec that produced the
    table, independent of execution backend — serializations of the same
    sweep are therefore byte-identical under serial and parallel execution
    and across cache hits.
    """

    def __init__(self, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]):
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: List[Dict[str, Any]] = [dict(row) for row in rows]
        #: Run metadata (trial/cache counts, wall time); not serialized and
        #: ignored by equality.
        self.meta: Dict[str, Any] = {}

    # -- basic container behaviour -------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:
        return f"ResultTable(columns={self.columns!r}, rows={len(self.rows)})"

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def where(self, **filters: Any) -> "ResultTable":
        """Rows matching every ``column == value`` filter, as a new table."""
        rows = [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in filters.items())
        ]
        return ResultTable(self.columns, rows)

    # -- serialization --------------------------------------------------------

    def _ordered_row(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        ordered = {column: row.get(column) for column in self.columns}
        for key in sorted(row):
            if key not in ordered:
                ordered[key] = row[key]
        return ordered

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize to JSON with deterministic column/row ordering."""
        payload = {
            "columns": list(self.columns),
            "rows": [self._ordered_row(row) for row in self.rows],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return cls(payload["columns"], payload["rows"])

    def to_csv(self) -> str:
        """CSV with the table's declared columns as the header."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([row.get(column, "") for column in self.columns])
        return buffer.getvalue()

    def to_text(self, title: Optional[str] = None, *, float_format: str = ".6g") -> str:
        """Aligned plain-text rendering (the benchmark suites' table format)."""
        def render(value: Any) -> str:
            if isinstance(value, float):
                return format(value, float_format)
            return str(value)

        rendered = [[render(row.get(column, "")) for column in self.columns] for row in self.rows]
        return format_table(title or "", list(self.columns), rendered)

    # -- reductions -----------------------------------------------------------

    def normalized_to_max(
        self, value_column: str, key_columns: Sequence[str]
    ) -> Dict[str, float]:
        """Each row's value divided by the column maximum, keyed by ``a/b/c``.

        This is the Figure 13 normalization (runtimes relative to the slowest
        measured point).
        """
        if not self.rows:
            raise ConfigurationError("no results to normalise")
        longest = max(float(row[value_column]) for row in self.rows)
        return {
            "/".join(str(row[column]) for column in key_columns): float(row[value_column])
            / longest
            for row in self.rows
        }

    def geomean_speedup(
        self,
        value_column: str,
        *,
        pivot_column: str,
        baseline: Any,
        target: Any,
        group_by: Sequence[str],
        where: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """Geometric-mean ratio ``baseline / target`` across matched groups.

        Rows are grouped by ``group_by`` (e.g. the layer); within each group
        the ``pivot_column`` (e.g. the engine) selects the baseline and
        target measurements.  Groups missing either side are skipped, and
        having no complete group at all is an error.  The ``headline``
        experiment reduces its Figure 13 rows with it, one pattern at a time.
        """
        groups: Dict[Tuple[Any, ...], Dict[Any, float]] = {}
        for row in self.rows:
            if where and any(row.get(k) != v for k, v in where.items()):
                continue
            key = tuple(row[column] for column in group_by)
            groups.setdefault(key, {})[row[pivot_column]] = float(row[value_column])
        ratios = [
            measurements[baseline] / measurements[target]
            for measurements in groups.values()
            if baseline in measurements and target in measurements
        ]
        if not ratios:
            raise ConfigurationError(
                f"no overlapping measurements for {baseline} vs {target}"
            )
        return geomean(ratios)


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Format an aligned text table (shared by benchmarks and the CLI)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append(line)
    lines.append("-" * len(line))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned text table (the benchmark suites' reporting helper)."""
    print()
    print(format_table(title, headers, rows))
