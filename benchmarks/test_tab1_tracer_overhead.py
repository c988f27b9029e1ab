"""Table 1: tracer overhead on an ffmpeg transcode (10 repetitions each).

Shape claims verified (paper: QTRACE 0.63%, QOSTRACE 2.69%, STRACE 5.51%):
- strict ordering NOTRACE < QTRACE << QOSTRACE < STRACE;
- qtrace stays under 1%;
- the ptrace-based tools land in the single-digit percent range, with
  strace roughly 2x qostrace.
"""


def test_tab01_tracer_overhead_ordering(cached_run):
    result = cached_run("tab01", reps=10)
    rows = {r["tracer"]: r for r in result.rows}

    overhead = {k: rows[k]["relative_overhead"] for k in ("QTRACE", "QOSTRACE", "STRACE")}
    assert 0.0 < overhead["QTRACE"] < 0.01
    assert overhead["QTRACE"] < overhead["QOSTRACE"] < overhead["STRACE"]
    assert 0.01 < overhead["QOSTRACE"] < 0.05
    assert 0.03 < overhead["STRACE"] < 0.10
    assert 1.5 <= overhead["STRACE"] / overhead["QOSTRACE"] <= 3.0

    # the baseline is at the paper's scale (~21 s of CPU)
    assert 20.0 < rows["NOTRACE"]["mean_s"] < 23.0
