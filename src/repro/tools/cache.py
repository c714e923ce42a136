"""Compile cache for the ``delirium`` CLI.

Templates are static, so a compiled coordination graph is a pure function
of (source text, preprocessor defines, optimization passes).  The CLI
hashes that triple — plus the serialization format version, so stale
artifacts from older builds can never be misread, and the compiler
revision, so a build whose compiler emits different graphs never serves
its predecessor's — and keeps the serialized graph JSON under the cache
directory.  A later ``delirium run``/``compile`` of unchanged source
skips the compiler entirely, the same shortcut the paper's environment
got from shipping compiled frameworks to the runtime.

The cache directory is ``$DELIRIUM_CACHE_DIR`` when set, otherwise
``~/.cache/delirium``.  Entries are content-addressed, so no invalidation
is ever needed: editing the source (or changing ``-D``/``--no-optimize``)
simply computes a different key.  ``--no-cache`` bypasses both read and
write.

The active pass set is part of the key: the names the CLI enables, read
off the compiler's one pass table
(:data:`~repro.compiler.passes.pipeline.PASSES`), with ``--fuse`` adding
the graph-only passes.  Fused and unfused compilations of identical source
therefore occupy *different* cache entries and can never be served to
each other (``tests/test_fuse.py`` pins this).  Splicing has no name of
its own: it is ``inline``'s graph half, so the key already covers it.  An
entry holds no generated code: a fused node is stored as its recipe, and
the loader makes the body from it.

``$DELIRIUM_CACHE_MAX`` (an entry count) bounds the cache with LRU
eviction: every hit refreshes the entry's mtime, and a store that pushes
the population over the bound deletes the stalest entries.  Eviction is
safe under concurrent readers because a reader losing the race simply
sees a miss (``load_cached`` treats a vanished file as one) and
recompiles.  Unset or non-positive means unbounded, the historical
behavior.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ..graph.ir import GraphProgram
from ..graph.serialize import COMPILER_REVISION, FORMAT_VERSION, dumps, loads


def cache_dir() -> str:
    """The cache directory (not created until a graph is stored)."""
    override = os.environ.get("DELIRIUM_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "delirium")


def cache_key(
    source: str,
    defines: dict[str, object] | None = None,
    passes: tuple[str, ...] | None = None,
) -> str:
    """Content hash of everything that determines the compiled graph."""
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "compiler": COMPILER_REVISION,
            "source": source,
            "defines": sorted(
                (k, repr(v)) for k, v in (defines or {}).items()
            ),
            "passes": list(passes or ()),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}.dlc")


def cache_max_entries() -> int | None:
    """The LRU bound from ``$DELIRIUM_CACHE_MAX``, or None (unbounded)."""
    raw = os.environ.get("DELIRIUM_CACHE_MAX")
    if not raw:
        return None
    try:
        bound = int(raw)
    except ValueError:
        return None
    return bound if bound > 0 else None


def _evict_lru(directory: str, bound: int) -> int:
    """Delete stalest ``.dlc`` entries beyond ``bound``; returns count.

    Recency is mtime: stores write it, hits refresh it.  Every
    filesystem call tolerates a concurrent evictor or reader having
    raced us — a vanished file is simply someone else's eviction.
    """
    try:
        names = [n for n in os.listdir(directory) if n.endswith(".dlc")]
    except OSError:
        return 0
    entries = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            entries.append((os.path.getmtime(path), path))
        except OSError:
            continue  # already evicted by a concurrent process
    excess = len(entries) - bound
    if excess <= 0:
        return 0
    evicted = 0
    for _, path in sorted(entries)[:excess]:
        try:
            os.unlink(path)
            evicted += 1
        except OSError:
            continue
    return evicted


def load_cached(key: str) -> GraphProgram | None:
    """The cached graph for ``key``, or None on miss or unreadable entry."""
    path = _entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            program = loads(fh.read())
    except Exception:  # noqa: BLE001
        # A missing, corrupt, or foreign-format entry is equivalent to a
        # miss; the store below rewrites it atomically.
        return None
    try:
        os.utime(path)  # LRU touch: a hit makes the entry recent again
    except OSError:
        pass  # concurrently evicted — the graph in hand is still good
    return program


def store_cached(key: str, program: GraphProgram) -> str:
    """Serialize ``program`` under ``key``; returns the entry path.

    The write is atomic (temp file + rename) so a concurrent reader never
    sees a truncated entry.
    """
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    path = _entry_path(key)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dumps(program))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    bound = cache_max_entries()
    if bound is not None:
        _evict_lru(directory, bound)
    return path
