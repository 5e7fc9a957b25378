"""Content-addressed on-disk cache for experiment cells.

A cell is a pure function of its arguments (the runner's determinism
contract), so its result can be keyed by *content*: the cache key is a
SHA-256 over a canonical encoding of ``(code fingerprint, cell function,
args, kwargs)``. Every choice that changes a result — the engine, the shard
count, the recovery arm — is a cell argument, so serial and sharded runs of
the same cell (different documented approximations) never share an entry.
The code fingerprint hashes every ``repro`` source file,
so any edit to the package invalidates the whole store — a hit can only
ever return what re-running the cell would have produced.

Keys must be stable across processes and machines: :func:`stable_bytes`
encodes values structurally (dataclasses by field order, dicts sorted by
encoded key, sets sorted, floats as IEEE bytes, arrays as dtype+shape+raw
bytes) instead of relying on ``pickle``'s representation or on hash
randomization. Values that cannot be encoded make the cell *uncacheable*
— never an error.

The store is a directory (default ``.repro-cache/``, override with
:data:`CACHE_DIR_ENV_VAR`) of pickle files named by key, fanned out over
256 subdirectories. Writes go through a temp file + :func:`os.replace`, so
concurrent ``--jobs`` workers and parallel sweeps can share one store
without locks: a torn read is impossible, and the worst race is two
processes computing the same value and one overwrite winning.

The CLI enables a process-wide default cache (see
:func:`set_default_cache`); plain library use stays uncached unless the
caller passes a cache to the runner or sets :data:`CACHE_ENV_VAR`.
"""

from __future__ import annotations

import dataclasses
import enum
import fcntl
import hashlib
import json
import os
import pickle
import struct
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CacheStats",
    "ResultCache",
    "Uncacheable",
    "cache_enabled_by_env",
    "cell_key",
    "code_fingerprint",
    "default_cache",
    "set_default_cache",
    "stable_bytes",
]

#: Truthy/falsy switch for the *default* cache ("0"/"off"/"false"/"no"
#: disable it; anything else, including unset, leaves it available).
CACHE_ENV_VAR = "REPRO_CACHE"

#: Overrides the on-disk store location (default ``.repro-cache/``).
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

_DEFAULT_ROOT = ".repro-cache"

_FALSY = {"0", "off", "false", "no"}


def cell_key(
    fn: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]
) -> Optional[str]:
    """Content-address one cell: SHA-256 over its canonical encoding.

    The key covers the code fingerprint and the cell itself. None when any
    input has no stable encoding — such a cell is uncacheable *and*
    un-dedupable, never an error.
    """
    try:
        payload = stable_bytes((code_fingerprint(), fn, args, kwargs))
    except Uncacheable:
        return None
    return hashlib.sha256(payload).hexdigest()


class Uncacheable(Exception):
    """Raised by :func:`stable_bytes` for values with no stable encoding."""


# ------------------------------------------------------------- stable keys

#: id(obj) -> (weak reference to obj, obj's encoded chunk), for objects that
#: opt in through ``__repro_cache_key__``. A warm service keys the same
#: preset Platform and catalog TopologyGen for every cell it sees; this
#: encodes each of them once (threads racing on one object at worst encode
#: it twice). Keyed by identity, not equality: equal objects can still
#: encode differently (``1 == 1.0``).
_key_chunks: Dict[int, Tuple["weakref.ref[Any]", bytes]] = {}


def _forget_chunk(ref: "weakref.ref[Any]", ident: int) -> None:
    entry = _key_chunks.get(ident)
    if entry is not None and entry[0] is ref:
        _key_chunks.pop(ident, None)


def _key_chunk(value: Any) -> bytes:
    """The encoding of a ``__repro_cache_key__`` object, memoized per object.

    Opting in promises a surrogate that never changes over the object's
    life (``Platform`` and ``TopologyGen`` are immutable), so the memo
    returns exactly the bytes a fresh encoding would. Objects that cannot
    be weakly referenced are encoded afresh every time.
    """
    ident = id(value)
    entry = _key_chunks.get(ident)
    if entry is not None and entry[0]() is value:
        return entry[1]
    out: list = [b"k"]
    _encode(type(value).__qualname__, out)
    out.append(b"(")
    _encode(value.__repro_cache_key__(), out)
    out.append(b")")
    chunk = b"".join(out)
    try:
        ref = weakref.ref(value, lambda ref, ident=ident: _forget_chunk(ref, ident))
    except TypeError:
        return chunk
    _key_chunks[ident] = (ref, chunk)
    return chunk


def _encode(value: Any, out: list) -> None:
    """Append a canonical, type-tagged encoding of ``value`` to ``out``.

    Deliberately *not* pickle: pickling is sensitive to memoization layout
    and dict insertion order, and ``hash()`` is randomized per process.
    """
    if value is None:
        out.append(b"N")
    elif isinstance(value, bool):
        out.append(b"T" if value else b"F")
    elif isinstance(value, int):
        text = str(value).encode()
        out.append(b"i%d:" % len(text) + text)
    elif isinstance(value, float):
        out.append(b"f" + struct.pack("!d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s%d:" % len(raw) + raw)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value) + value)
    elif isinstance(value, enum.Enum):
        _encode((type(value).__qualname__, value.name), out)
    elif isinstance(value, (list, tuple)):
        out.append(b"l(")
        for item in value:
            _encode(item, out)
        out.append(b")")
    elif isinstance(value, (set, frozenset)):
        encoded = []
        for item in value:
            chunk: list = []
            _encode(item, chunk)
            encoded.append(b"".join(chunk))
        out.append(b"e(")
        out.extend(sorted(encoded))
        out.append(b")")
    elif isinstance(value, dict):
        entries = []
        for key, item in value.items():
            key_chunk: list = []
            _encode(key, key_chunk)
            item_chunk: list = []
            _encode(item, item_chunk)
            entries.append((b"".join(key_chunk), b"".join(item_chunk)))
        out.append(b"d(")
        for key_bytes, item_bytes in sorted(entries):
            out.append(key_bytes)
            out.append(item_bytes)
        out.append(b")")
    elif hasattr(value, "__repro_cache_key__"):
        # Non-dataclass domain objects (e.g. Platform) opt in by returning
        # a stable surrogate that rebuilds them deterministically.
        out.append(_key_chunk(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(b"c")
        _encode(type(value).__qualname__, out)
        out.append(b"(")
        for field in dataclasses.fields(value):
            _encode(getattr(value, field.name), out)
        out.append(b")")
    elif callable(value) and hasattr(value, "__qualname__"):
        # Callables are identified by *importable* name. Lambdas and nested
        # functions all share one qualname per definition site, so keying
        # them by name would make distinct closures collide (in the cache
        # and in batch dedup) — they are uncacheable instead. A bound
        # method's identity includes its receiver.
        module = getattr(value, "__module__", None)
        qualname = value.__qualname__
        if module is None:
            raise Uncacheable(f"callable without a module: {value!r}")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise Uncacheable(
                f"callable is not module-level (no stable identity): {value!r}"
            )
        receiver = getattr(value, "__self__", None)
        if receiver is not None:
            _encode((module, qualname, receiver), out)
        else:
            _encode((module, qualname), out)
    elif type(value).__module__ == "numpy" and hasattr(value, "tobytes"):
        # ndarrays and numpy scalars, without importing numpy here.
        dtype = getattr(value, "dtype", None)
        shape = getattr(value, "shape", ())
        out.append(b"a")
        _encode((str(dtype), tuple(shape)), out)
        out.append(value.tobytes())
    else:
        raise Uncacheable(
            f"no stable encoding for {type(value).__qualname__}: {value!r}"
        )


def stable_bytes(value: Any) -> bytes:
    """Canonical byte encoding of ``value`` (raises :class:`Uncacheable`)."""
    out: list = []
    _encode(value, out)
    return b"".join(out)


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Computed once per process; editing any module under ``src/repro``
    therefore shifts every cache key, which is the invalidation story —
    there is no staleness protocol to get wrong.
    """
    global _fingerprint
    if _fingerprint is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


# ------------------------------------------------------------------- store


#: Subdirectory of the store holding the persisted run counters: one
#: totals file, replaced atomically under an exclusive lock on a lock file.
#: Per-run ``run-*.json`` records that older versions wrote there are
#: folded into the totals by the next :meth:`ResultCache.record_run`.
_STATS_DIRNAME = "_stats"
_TOTALS_NAME = "totals.json"
_LOCK_NAME = ".lock"

#: The persisted counters, in totals-file order.
_TOTALS_FIELDS = ("runs", "hits", "misses", "bytes_read", "bytes_written")


def _write_atomic(path: str, payload: bytes) -> None:
    """Write ``path`` through a temp file and :func:`os.replace`.

    Readers never see a torn file. On failure the temp file is removed and
    the error raised.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=".tmp-",
        suffix=os.path.splitext(path)[1],
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Snapshot of one store plus hit/miss/byte counters.

    ``entries``/``bytes`` are recomputed from disk on every call, so
    entries written by *other* processes mid-run are counted the moment
    they land. ``hits``/``misses``/``bytes_read``/``bytes_written`` are
    this process's live counters; the ``recorded_*`` fields are the totals
    persisted by :meth:`ResultCache.record_run` — the store's lifetime
    accounting across every process that used it.
    """

    root: str
    entries: int
    bytes: int
    hits: int
    misses: int
    bytes_read: int = 0
    bytes_written: int = 0
    recorded_runs: int = 0
    recorded_hits: int = 0
    recorded_misses: int = 0
    recorded_bytes_read: int = 0
    recorded_bytes_written: int = 0


class ResultCache:
    """Content-addressed pickle store under ``root``.

    ``get``/``put`` never raise for storage problems (a cache must degrade
    to "miss", not break the sweep); corrupt or unreadable entries count as
    misses and are left for :meth:`clear`. The hit/miss/byte counters move
    under one lock: a service reads the store on its event loop while its
    job thread reads and writes it.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV_VAR) or _DEFAULT_ROOT
        self.root = Path(root)
        # Entry paths are joined as strings: a warm service builds two per
        # cached cell (probe, read), and pathlib's joins cost more.
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._recorded = (0, 0, 0, 0)
        self._lock = threading.Lock()

    def key_for(
        self, fn: Any, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Optional[str]:
        """Cache key for one cell, or None when any input is uncacheable."""
        return cell_key(fn, args, kwargs)

    def _path(self, key: str) -> str:
        return os.path.join(self._root, key[:2], key + ".pkl")

    def contains(self, key: str) -> bool:
        """Is there a stored entry for ``key``? Never touches counters.

        A probe, not a lookup: the service probes every cell at admission
        and reads only the probed hits, each once, with :meth:`get` (which
        charges the hit). A probe miss goes to the runner, whose own
        :meth:`get` charges the miss, so each cell is charged once.
        """
        return os.path.isfile(self._path(key))

    def get(self, key: str) -> Tuple[bool, Any]:
        """(hit, value) for ``key``; misses return ``(False, None)``."""
        try:
            with open(self._path(key), "rb") as handle:
                payload = handle.read()
            value = pickle.loads(payload)
        except Exception:
            with self._lock:
                self.misses += 1
            return False, None
        with self._lock:
            self.hits += 1
            self.bytes_read += len(payload)
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key`` atomically; False if not storable."""
        path = self._path(key)
        try:
            payload = pickle.dumps(value)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _write_atomic(path, payload)
        except Exception:
            return False
        with self._lock:
            self.bytes_written += len(payload)
        return True

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.pkl"):
            if not path.name.startswith(".tmp-"):
                yield path

    def _legacy_records(self) -> Iterator[Path]:
        """Per-run records written by older versions, not yet folded."""
        stats_dir = self.root / _STATS_DIRNAME
        if stats_dir.is_dir():
            yield from stats_dir.glob("run-*.json")

    def _stats_lock(self, create: bool):
        """The stats directory's exclusive lock; closing releases it.

        None when there is no stats directory (unless ``create``) or it
        cannot be locked.
        """
        stats_dir = self.root / _STATS_DIRNAME
        try:
            if create:
                stats_dir.mkdir(parents=True, exist_ok=True)
            elif not stats_dir.is_dir():
                return None
            handle = open(stats_dir / _LOCK_NAME, "a")
        except OSError:
            return None
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
        except OSError:
            handle.close()
            return None
        return handle

    def _read_totals(self, legacy: List[Path]) -> Dict[str, int]:
        """The persisted totals plus the ``legacy`` per-run records.

        Unreadable or missing files count as zero.
        """
        totals = dict.fromkeys(_TOTALS_FIELDS, 0)
        path = self.root / _STATS_DIRNAME / _TOTALS_NAME
        records = [(path, False)] + [(record, True) for record in legacy]
        for record_path, one_run in records:
            try:
                with open(record_path, encoding="utf-8") as handle:
                    record = json.load(handle)
                counts = {name: int(record.get(name, 0)) for name in totals}
            except (OSError, ValueError, TypeError, AttributeError):
                continue
            if one_run:
                counts["runs"] = 1
            for name, count in counts.items():
                totals[name] += count
        return totals

    def record_run(self, label: str) -> bool:
        """Add this process's counters-since-last-record to the totals.

        Under an exclusive lock on ``<root>/_stats/.lock``, reads the totals
        (folding in any per-run records older versions left), adds one run
        with the hit/miss/byte deltas accumulated since the previous
        :meth:`record_run` (so a long-lived service can record when a job
        that ran ends, and at shutdown, without double counting), replaces
        the totals file atomically and unlinks the folded records. The
        store's stats stay one file however many runs it has seen.
        All-zero deltas are skipped. The totals keep counts only, so
        ``label`` (the command or job that ran) is not persisted. Never
        raises — stats are accounting, not correctness.
        """
        previous = self._recorded
        current = self._counters()
        delta = tuple(now - then for now, then in zip(current, previous))
        if not any(delta):
            return False
        lock = self._stats_lock(create=True)
        if lock is None:
            return False
        with lock:
            legacy = list(self._legacy_records())
            totals = self._read_totals(legacy)
            totals["runs"] += 1
            for name, count in zip(_TOTALS_FIELDS[1:], delta):
                totals[name] += count
            try:
                _write_atomic(
                    os.path.join(self._root, _STATS_DIRNAME, _TOTALS_NAME),
                    json.dumps(totals, sort_keys=True).encode(),
                )
            except Exception:
                return False
            for path in legacy:
                try:
                    path.unlink()
                except OSError:
                    pass
        self._recorded = current
        return True

    def _counters(self) -> Tuple[int, int, int, int]:
        """(hits, misses, bytes_read, bytes_written), read under the lock."""
        with self._lock:
            return (self.hits, self.misses, self.bytes_read, self.bytes_written)

    def stats(self) -> CacheStats:
        """Entry count and on-disk size, plus live and persisted counters.

        Everything disk-derived is recomputed on each call, so entries and
        run records written by other processes mid-run are included.
        """
        entries = 0
        size = 0
        for path in self._entries():
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        totals = self._read_totals(list(self._legacy_records()))
        hits, misses, bytes_read, bytes_written = self._counters()
        return CacheStats(
            root=str(self.root),
            entries=entries,
            bytes=size,
            hits=hits,
            misses=misses,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            recorded_runs=totals["runs"],
            recorded_hits=totals["hits"],
            recorded_misses=totals["misses"],
            recorded_bytes_read=totals["bytes_read"],
            recorded_bytes_written=totals["bytes_written"],
        )

    def clear(self) -> int:
        """Delete every entry and the run totals; returns entries removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        lock = self._stats_lock(create=False)
        if lock is not None:
            with lock:
                stats_dir = self.root / _STATS_DIRNAME
                for path in [stats_dir / _TOTALS_NAME, *self._legacy_records()]:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return removed


# --------------------------------------------------------- process default

_UNSET = object()
_default: Any = _UNSET


def cache_enabled_by_env() -> bool:
    """Is the default cache allowed by :data:`CACHE_ENV_VAR`?"""
    return os.environ.get(CACHE_ENV_VAR, "").strip().lower() not in _FALSY


def set_default_cache(cache: Optional[ResultCache]) -> None:
    """Install (or, with None, disable) the process-wide default cache."""
    global _default
    _default = cache


def default_cache() -> Optional[ResultCache]:
    """The cache the runner uses when the caller does not pass one.

    Explicit :func:`set_default_cache` wins; otherwise a store is built
    iff :data:`CACHE_ENV_VAR` is set truthy (unset means no default —
    library users opt in, the CLI opts in for them).
    """
    if _default is not _UNSET:
        return _default
    enabled = os.environ.get(CACHE_ENV_VAR, "").strip().lower()
    if not enabled or enabled in _FALSY:
        return None
    return ResultCache()
