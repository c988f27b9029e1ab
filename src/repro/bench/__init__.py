"""Single-run performance layer: canonical scenarios and golden digests.

The experiment harness makes the suite cheap *across* runs (process
fan-out + result caching); this package pins what one run computes:

- :mod:`.scenarios` — deterministic scheduler scenarios (a seeded
  mplayer-class player plus synthetic disturbance) shared by the golden
  digests and the fast-forward equivalence checks;
- :mod:`.golden` — SHA-256 digests over the full context-switch trace and
  final kernel state of each scenario, pinning the simulator's results
  bit-for-bit across optimisation PRs.

How fast a run goes is measured from outside ``src/``, by the end-to-end
benchmark under ``benchmarks/e2e/``.
"""

from repro.bench.golden import GOLDEN_DIGESTS, golden_digest
from repro.bench.scenarios import GOLDEN_SCENARIOS, build_scenario

__all__ = [
    "GOLDEN_DIGESTS",
    "GOLDEN_SCENARIOS",
    "build_scenario",
    "golden_digest",
]
