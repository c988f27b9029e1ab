"""Report generation from live experiment runs.

Two output formats:

- markdown (:func:`generate_report`) — the human-readable reproduction
  report used to regenerate the data sections of EXPERIMENTS.md;
- ``BENCH_*.json`` (:func:`bench_payload` / :func:`write_bench_json`) —
  the machine-readable benchmark report CI archives on every run, so the
  performance trajectory of the harness is measured PR over PR.

>>> from repro.experiments.report import generate_report   # doctest: +SKIP
>>> text = generate_report(names=["fig01", "fig02"])        # doctest: +SKIP
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.experiments import REGISTRY
from repro.experiments.base import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import RunOutcome

#: scaled-down parameters for the expensive sweeps, used by
#: ``repro-exp bench --quick`` (the CI smoke setting): every experiment
#: still exercises its full code path, just with fewer repetitions.
BENCH_QUICK_OVERRIDES: dict[str, dict] = {
    "fig06": {"reps": 2, "df_values": (0.5,), "horizons_s": (0.5, 1.0)},
    "fig07": {"reps": 2, "fmax_values": (100.0, 200.0), "horizons_s": (0.5, 1.0)},
    "fig10": {"tracing_times_s": (0.2, 0.5, 1.0)},
    "fig11": {"reps": 5},
    "fig12": {"reps": 4, "duration_s": 3.0},
    "fig13": {"n_frames": 300},
    "tab03": {"loads": (0.2, 0.5), "n_frames": 300},
    "tab01": {"reps": 2},
    "abl-predictors": {"n_frames": 300},
    "abl-spread": {"values": (0.0, 0.1, 0.2), "n_frames": 300},
    "abl-sampling": {"values_ms": (40, 100, 400), "n_frames": 300},
    "abl-policy": {"n_frames": 300},
    "abl-boost": {"n_frames": 300},
    "abl-tracer-input": {"reps": 4},
    "abl-smp": {"n_players": 2, "n_frames": 150},
    "abl-rate-change": {"n_frames_per_phase": 210},
    "abl-detector": {"reps": 4},
    "abl-importance": {"n_frames": 300},
}


def _markdown_table(result: ExperimentResult) -> str:
    if not result.rows:
        return "*(no tabular data)*"
    cols = result.columns or list(result.rows[0].keys())
    head = "| " + " | ".join(str(c) for c in cols) + " |"
    sep = "|" + "|".join("---" for _ in cols) + "|"
    body = []
    for row in result.rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if isinstance(v, float):
                cells.append(f"{v:.4g}")
            elif v is None:
                cells.append("-")
            else:
                cells.append(str(v))
        body.append("| " + " | ".join(cells) + " |")
    return "\n".join([head, sep] + body)


def render_result(result: ExperimentResult, elapsed_s: float | None = None) -> str:
    """One experiment as a markdown section."""
    lines = [f"## {result.experiment} — {result.title}", ""]
    lines.append(_markdown_table(result))
    if result.series:
        lines.append("")
        lines.append(
            "Series available: "
            + ", ".join(f"`{s.name}` ({len(s.x)} pts)" for s in result.series)
        )
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    if elapsed_s is not None:
        lines.append("")
        lines.append(f"*(regenerated in {elapsed_s:.1f} s)*")
    return "\n".join(lines)


def generate_report(
    *,
    names: list[str] | None = None,
    overrides: Mapping[str, dict] | None = None,
    title: str = "Reproduction report",
) -> str:
    """Run the named experiments (default: all) and render a report.

    ``overrides`` maps experiment name -> keyword overrides for its
    ``run()``; unknown names raise ``KeyError`` early.
    """
    selected = names if names is not None else list(REGISTRY)
    for name in selected:
        if name not in REGISTRY:
            raise KeyError(f"unknown experiment {name!r}")
    overrides = dict(overrides or {})

    sections = [f"# {title}", ""]
    sections.append(
        "Generated by `repro.experiments.report`; every table below is a "
        "live run, not a transcription."
    )
    for name in selected:
        start = time.perf_counter()
        result = REGISTRY[name].run(**overrides.get(name, {}))
        elapsed = time.perf_counter() - start
        sections.append("")
        sections.append(render_result(result, elapsed))
    return "\n".join(sections) + "\n"


def bench_payload(
    outcomes: list["RunOutcome"],
    *,
    overrides: Mapping[str, dict] | None = None,
) -> dict:
    """The machine-readable ``BENCH_*.json`` document.

    Schema ``repro-bench/1``: a host block (so absolute timings can be
    normalised across CI runners) plus one record per experiment with its
    wall-clock time, cache status, parameters and the full result data —
    enough for a downstream tool to diff both performance *and* output
    between two commits.

    The payload is strict JSON: non-finite floats (an experiment can
    legitimately report ``nan``, e.g. fig12 when no repetition detects a
    frequency) are coerced to ``null`` so ``jq``/``JSON.parse`` never
    choke on the artifact.
    """
    overrides = dict(overrides or {})
    payload = {
        "schema": "repro-bench/1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "results": [
            {
                "experiment": o.name,
                "elapsed_s": round(o.elapsed_s, 6),
                "cached": o.cached,
                "jobs": o.jobs,
                "cache_key": o.key,
                "overrides": {k: _override_repr(v) for k, v in overrides.get(o.name, {}).items()},
                "result": o.result.to_jsonable(),
            }
            for o in outcomes
        ],
    }
    return _strict_json(payload)


def _override_repr(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (tuple, list)):
        return [_override_repr(x) for x in v]
    return repr(v)


def _strict_json(v):
    """Recursively replace NaN/Inf with ``None`` (bare ``NaN`` tokens are
    not valid strict JSON and break downstream consumers)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_strict_json(x) for x in v]
    return v


def write_bench_json(
    path,
    outcomes: list["RunOutcome"],
    *,
    overrides: Mapping[str, dict] | None = None,
) -> None:
    """Serialise :func:`bench_payload` to ``path``."""
    payload = bench_payload(outcomes, overrides=overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
