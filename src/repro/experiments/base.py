"""Result containers shared by all experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence


@dataclass
class Series:
    """One curve: x values, y values, optional error bars."""

    name: str
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    yerr: list | None = None

    def add(self, x, y, yerr=None) -> None:
        """Append one point."""
        self.x.append(x)
        self.y.append(y)
        if yerr is not None:
            if self.yerr is None:
                self.yerr = []
            self.yerr.append(yerr)


@dataclass
class ExperimentResult:
    """Everything an experiment produced, renderable as a text report."""

    experiment: str
    title: str
    #: column names of :attr:`rows`
    columns: list[str] = field(default_factory=list)
    #: the table the paper prints (one dict per row)
    rows: list[dict] = field(default_factory=list)
    #: the curves the paper plots
    series: list[Series] = field(default_factory=list)
    #: free-form remarks (substitutions, deviations, measured environment)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append a table row; establishes columns on first use."""
        if not self.columns:
            self.columns = list(values.keys())
        self.rows.append(values)

    def series_by_name(self, name: str) -> Series:
        """Find a series (raises ``KeyError`` if absent)."""
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_text(self) -> str:
        """Render the result as the text report the CLI prints."""
        out = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            cols = self.columns or list(self.rows[0].keys())
            widths = {
                c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in self.rows)) for c in cols
            }
            out.append("  ".join(str(c).ljust(widths[c]) for c in cols))
            out.append("  ".join("-" * widths[c] for c in cols))
            for r in self.rows:
                out.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
        for s in self.series:
            out.append(f"-- series: {s.name} ({len(s.x)} points)")
            for i, (x, y) in enumerate(zip(s.x, s.y, strict=True)):
                err = f" +/- {_fmt(s.yerr[i])}" if s.yerr is not None else ""
                out.append(f"   {_fmt(x):>12}  {_fmt(y)}{err}")
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)


    def to_csv(self) -> str:
        """Render rows and series as CSV (one block per section).

        The row table comes first; every series follows as a
        ``series,name,x,y[,yerr]`` block.  Intended for feeding external
        plotting tools (`repro-exp run fig01 --csv out.csv`).
        """
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        if self.rows:
            cols = self.columns or list(self.rows[0].keys())
            writer.writerow(cols)
            for r in self.rows:
                writer.writerow([r.get(c) for c in cols])
        for s in self.series:
            has_err = s.yerr is not None
            header = ["series", "name", "x", "y"] + (["yerr"] if has_err else [])
            writer.writerow(header)
            for i, (x, y) in enumerate(zip(s.x, s.y, strict=True)):
                row = ["series", s.name, x, y]
                if has_err:
                    row.append(s.yerr[i])
                writer.writerow(row)
        return buf.getvalue()


    def to_jsonable(self) -> dict:
        """A plain-JSON view of the result (numpy scalars coerced).

        This is what the cache metadata, the ``BENCH_*.json`` emitter and
        the serial-vs-parallel equality checks operate on: two runs are
        considered equal when their jsonable views are equal.
        """
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{k: _jsonable(v) for k, v in row.items()} for row in self.rows],
            "series": [
                {
                    "name": s.name,
                    "x": [_jsonable(v) for v in s.x],
                    "y": [_jsonable(v) for v in s.y],
                    "yerr": None if s.yerr is None else [_jsonable(v) for v in s.yerr],
                }
                for s in self.series
            ],
            "notes": list(self.notes),
        }

    def comparable(self, *, ignore_columns: tuple[str, ...] = ()) -> dict:
        """Like :meth:`to_jsonable` but with wall-clock columns dropped.

        Experiments that measure host wall-clock time (fig06, fig07,
        fig08 and the detector ablation declare theirs in a module-level
        ``TIMING_COLUMNS``) can never be bit-identical across runs;
        everything else must be.
        """
        d = self.to_jsonable()
        if ignore_columns:
            drop = set(ignore_columns)
            d["columns"] = [c for c in d["columns"] if c not in drop]
            d["rows"] = [{k: v for k, v in row.items() if k not in drop} for row in d["rows"]]
        return d


def _jsonable(v):
    """Coerce numpy scalars (and anything float/int-like) to plain Python."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v
    if hasattr(v, "item"):  # numpy scalar
        return v.item()
    return str(v)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for n < 2)."""
    vals = list(values)
    n = len(vals)
    if n == 0:
        return 0.0, 0.0
    mean = sum(vals) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, var**0.5
