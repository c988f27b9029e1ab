"""Content-addressed on-disk cache for :class:`ExperimentResult`.

Every cache entry is keyed on the experiment *name*, the ``run()``
keyword arguments as sorted-key compact JSON (:func:`canonical_kwargs`)
and a code digest covering the **entire** ``repro`` package source tree
(experiments depend on ``repro.sim``, ``repro.core``, ``repro.workloads``
and on sibling experiment modules, e.g. fig07/fig08/fig09 reuse
``collect_traces`` from fig06 — so only the whole-tree digest makes
invalidation sound), plus the experiment's own module when it lives
outside the package (dynamically registered entries).  Therefore

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
the key's provenance.  A hit is one ``open`` of the pickle, with no
existence check before it.  Writes go to a uniquely named temporary file
in the same directory followed by ``os.replace``, so a crashed run never
leaves a truncated entry behind and concurrent writers of the same key
cannot interleave; a corrupted entry is evicted on read and recomputed.

The default cache directory is ``$REPRO_CACHE_DIR`` when set, else
``.repro-cache/`` under the current working directory (gitignored).
"""

from __future__ import annotations

import contextlib
import hashlib
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
    """A stable text form of ``run()`` kwargs: sorted-key compact JSON.

    Dict order is ignored at every level and a tuple keys like a list.
    Floats are JSON numbers in shortest round-trip form, so a float never
    keys like a string, and numpy scalars key as their Python values.
    Any other non-literal (a ``map_fn`` the runner injects, a set) raises
    ``TypeError``, so execution strategy never leaks into the key.

    >>> canonical_kwargs({"h": (1.0, 2), "a": {"y": 1, "x": None}})
    '{"a":{"x":null,"y":1},"h":[1.0,2]}'
    >>> canonical_kwargs({"x": 1.0}) == canonical_kwargs({"x": "1.0"})
    False
    """
    return _encode(kwargs)


def _numpy_scalar(value):
    """The encoder's hook for non-JSON values: ``np.int64`` and ``np.bool_`` key as Python's."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"kwarg value {value!r} is not cacheable (not a literal)")


#: one encoder for every key text (``np.float64`` is a ``float`` and never reaches the hook)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_numpy_scalar).encode


def hashed_key(name: str, text: str, digest: str) -> str:
    """The content hash of an already-encoded key text under ``name`` and ``digest``."""
    return hashlib.sha256(f"{name}\0{text}\0{digest}".encode()).hexdigest()[:32]


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
    """On-disk pickle store for experiment results, keyed by content."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------

    def key(self, name: str, kwargs: dict, digest: str) -> str:
        """The content hash for (experiment, kwargs, code digest)."""
        return hashed_key(name, canonical_kwargs(kwargs), digest)

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

    def _paths(self, name: str, key: str) -> tuple[str, str]:
        stem = os.path.join(self.root, name, key)
        return stem + ".pkl", stem + ".json"

    def get(self, name: str, key: str) -> ExperimentResult | None:
        """Load an entry's result; evicts and misses on a corrupt pickle.

        A hit is one ``open``, with no existence check first.  The
        ``.json`` sidecar is write-only provenance: a hit never reads it,
        so a missing or garbled sidecar does not cost the entry.
        """
        pkl, meta = self._paths(name, key)
        try:
            with open(pkl, "rb", buffering=0) as fh:
                result = pickle.loads(fh.readall())
            if not isinstance(result, ExperimentResult):
                raise TypeError(f"cache entry holds {type(result).__name__}")
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            return None
        except Exception:
            # corrupted / stale-format entry: evict and recompute
            for p in (pkl, meta):
                with contextlib.suppress(OSError):
                    os.unlink(p)
            self.misses += 1
            return None
        self.hits += 1
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
        os.makedirs(os.path.dirname(pkl), exist_ok=True)
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

    @staticmethod
    def _atomic_write(dest: str, write) -> None:
        directory, base = os.path.split(dest)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"{base}.", suffix=".tmp")
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
