"""Content-addressed on-disk cache for :class:`ExperimentResult`.

Every cache entry is keyed on the experiment *name*, the canonicalised
``run()`` keyword arguments and a code digest covering the **entire**
``repro`` package source tree (experiments depend on ``repro.sim``,
``repro.core``, ``repro.workloads`` and on sibling experiment modules,
e.g. fig07/fig08/fig09 reuse ``collect_traces`` from fig06 — so only the
whole-tree digest makes invalidation sound), plus the experiment's own
module when it lives outside the package (dynamically registered
entries).  Therefore

- re-running with the same parameters is a hit,
- changing any parameter is a miss,
- editing *any* ``repro`` source file is a miss (stale results can never
  be served after the implementation — simulator, workloads or
  experiment code — changed).

The tree digest is computed once per process and memoised; editing
sources *while* a process is running is not detected until the next
invocation, which is the granularity that matters for the CLI and CI.

Entries live under ``<cache_dir>/<experiment>/<key>.pkl`` (a pickled
:class:`ExperimentResult`) next to a human-readable ``<key>.json`` with
the key's provenance.  Writes go to a uniquely named temporary file in
the same directory followed by ``os.replace``, so a crashed run never
leaves a truncated entry behind and concurrent writers of the same key
cannot interleave; a corrupted entry is evicted on read and simply
recomputed.

The default cache directory is ``$REPRO_CACHE_DIR`` when set, else
``.repro-cache/`` under the current working directory (gitignored).
"""

from __future__ import annotations

import hashlib
import contextlib
import json
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.base import ExperimentResult

#: environment variable overriding the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default cache directory name (relative to the current working directory)
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_CACHE_DIRNAME


def canonical_kwargs(kwargs: dict) -> str:
    """A stable text form of ``run()`` kwargs, independent of dict order.

    Sequences are normalised (tuple vs list does not change the key),
    floats go through ``repr`` (shortest round-trip form), and
    non-literal values (callables such as a ``map_fn`` injected by the
    runner) are rejected so execution strategy never leaks into the key.
    """
    return json.dumps(
        {k: _canon(v) for k, v in sorted(kwargs.items())},
        sort_keys=True,
        separators=(",", ":"),
    )


def _canon(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return [_canon(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in sorted(v.items())}
    if hasattr(v, "item"):  # numpy scalar
        return _canon(v.item())
    raise TypeError(f"kwarg value {v!r} is not cacheable (not a literal)")


def code_digest(*modules) -> str:
    """SHA-256 over the source files backing ``modules``.

    Accepts module objects or anything with a resolvable ``__file__``;
    entries without a source file (e.g. namespaces) are skipped.
    :meth:`ResultCache.key_for` combines this with :func:`package_digest`
    so the key also covers dynamically registered experiment modules that
    live outside the ``repro`` package tree (test fixtures, plugins).
    """
    h = hashlib.sha256()
    seen: set[str] = set()
    for mod in modules:
        path = getattr(mod, "__file__", None)
        if not path or path in seen:
            continue
        seen.add(path)
        h.update(path.encode())
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            h.update(b"<unreadable>")
    return h.hexdigest()


def tree_digest(root: Path | str) -> str:
    """SHA-256 over every ``*.py`` file under ``root`` (sorted, path-salted).

    This is the invalidation backbone: experiments transitively import
    the simulator, the workload models and each other, so the only sound
    code digest is one over the whole source tree — a per-module digest
    would silently serve stale results after an edit to a dependency.
    """
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\x00")
        try:
            h.update(p.read_bytes())
        except OSError:
            h.update(b"<unreadable>")
        h.update(b"\x00")
    return h.hexdigest()


#: per-process memo for :func:`package_digest` (root path -> digest)
_PACKAGE_DIGESTS: dict[str, str] = {}


def package_digest() -> str:
    """:func:`tree_digest` of the installed ``repro`` package, memoised."""
    import repro

    root = str(Path(repro.__file__).resolve().parent)
    if root not in _PACKAGE_DIGESTS:
        _PACKAGE_DIGESTS[root] = tree_digest(root)
    return _PACKAGE_DIGESTS[root]


class ResultCache:
    """On-disk pickle store for experiment results, keyed by content.

    ``max_entries`` bounds the number of stored results: when a ``put``
    pushes the cache past the bound, the least-recently-used entries
    (by pickle mtime — reads touch it) are evicted.  ``None`` (the
    default) keeps the historical unbounded behaviour; fleet-scale runs
    that sweep thousands of distinct parameter points should set a bound
    so the on-disk cache cannot grow without limit.
    """

    def __init__(self, root: Path | str | None = None, *, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keys ---------------------------------------------------------

    def key(self, name: str, kwargs: dict, digest: str) -> str:
        """The content hash for (experiment, kwargs, code digest)."""
        h = hashlib.sha256()
        h.update(name.encode())
        h.update(b"\x00")
        h.update(canonical_kwargs(kwargs).encode())
        h.update(b"\x00")
        h.update(digest.encode())
        return h.hexdigest()[:32]

    def key_for(self, name: str, kwargs: dict) -> str:
        """Key for a registered experiment, digesting its backing code.

        The digest combines the whole-``repro``-tree :func:`package_digest`
        (experiments depend on the simulator, the workloads and each
        other) with a :func:`code_digest` of the entry's own module, which
        covers dynamically registered experiments living outside the
        package tree.
        """
        from repro.experiments import REGISTRY

        entry = REGISTRY[name]
        run = getattr(entry, "run", None)
        mod = sys.modules.get(getattr(run, "__module__", "")) or entry
        digest = f"{package_digest()}:{code_digest(mod)}"
        return self.key(name, kwargs, digest)

    # -- storage ------------------------------------------------------

    def _paths(self, name: str, key: str) -> tuple[Path, Path]:
        d = self.root / name
        return d / f"{key}.pkl", d / f"{key}.json"

    def get(self, name: str, key: str) -> ExperimentResult | None:
        """Load an entry's result; evicts and misses on a corrupt pickle.

        The ``.json`` sidecar is write-only provenance: a hit never reads
        it, so a missing or garbled sidecar does not cost the entry.
        """
        pkl, meta = self._paths(name, key)
        if not pkl.exists():
            self.misses += 1
            return None
        try:
            with open(pkl, "rb") as fh:
                result = pickle.load(fh)
            if not isinstance(result, ExperimentResult):
                raise TypeError(f"cache entry holds {type(result).__name__}")
        except Exception:
            # corrupted / stale-format entry: evict and recompute
            for p in (pkl, meta):
                with contextlib.suppress(OSError):
                    p.unlink()
            self.misses += 1
            return None
        self.hits += 1
        # LRU touch: a hit marks the entry recently used for eviction
        with contextlib.suppress(OSError):
            os.utime(pkl)
        return result

    def put(
        self,
        name: str,
        key: str,
        result: ExperimentResult,
        *,
        kwargs: dict | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        """Store an entry atomically (never leaves partial files).

        Each writer gets its own uniquely named temporary file (via
        ``tempfile.mkstemp`` in the destination directory), so concurrent
        processes computing the same key cannot interleave writes; the
        last ``os.replace`` wins with a complete entry either way.
        """
        pkl, meta = self._paths(name, key)
        pkl.parent.mkdir(parents=True, exist_ok=True)
        info = {
            "experiment": name,
            "key": key,
            "kwargs": canonical_kwargs(kwargs or {}),
            "created": time.time(),
            "elapsed_s": elapsed_s,
        }
        self._atomic_write(
            pkl, lambda fh: pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._atomic_write(meta, lambda fh: fh.write(json.dumps(info, indent=2).encode("utf-8")))
        if self.max_entries is not None:
            self._evict_lru(keep=pkl)

    def _evict_lru(self, keep: Path) -> None:
        """Drop least-recently-used entries beyond :attr:`max_entries`.

        Recency is the pickle mtime (touched on every hit).  The entry
        just written (``keep``) is never evicted, even if a concurrent
        writer races this scan with fresher files.
        """
        entries: list[tuple[float, Path]] = []
        for pkl in self.root.glob("*/*.pkl"):
            try:
                entries.append((pkl.stat().st_mtime, pkl))
            except OSError:
                continue  # concurrently evicted by another process
        excess = len(entries) - (self.max_entries or 0)
        if excess <= 0:
            return
        entries.sort(key=lambda item: (item[0], str(item[1])))
        for _, pkl in entries:
            if excess <= 0:
                break
            if pkl == keep:
                continue
            for p in (pkl, pkl.with_suffix(".json")):
                with contextlib.suppress(OSError):
                    p.unlink()
            self.evictions += 1
            excess -= 1

    @staticmethod
    def _atomic_write(dest: Path, write) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(dest.parent), prefix=f"{dest.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, dest)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        n = 0
        if self.root.exists():
            for p in sorted(self.root.rglob("*")):
                if p.is_file():
                    p.unlink()
                    n += 1
        return n
