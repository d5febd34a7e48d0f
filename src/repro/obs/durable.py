"""The one artifact channel: durable, per-worker-sharded JSONL streams.

Trace files (:class:`~repro.obs.trace.JsonlSink`), flight-recorder
timelines and determinism fingerprints all stream one JSON object per
line, and share everything here:

* :class:`DurableJsonlWriter` — a file that survives three hostile exits:
  **interpreter shutdown** (an ``atexit`` hook closes it), **worker exit**
  (workers leave through ``os._exit`` and skip ``atexit``, so an optional
  ``multiprocessing.util.Finalize`` closes worker shards) and **fork** (a
  child shares the parent's file object and buffer, so every close/flush
  path is pid-guarded: the child never flushes the parent's bytes).
  Closing flushes and ``fsync``\\ s so shard tails survive abrupt exits;
* :class:`JsonlArtifact` — a file-or-memory stream whose lazily opened
  writer re-points at ``<stem>.<k><ext>`` in worker ``k``;
* :class:`GlobalArtifact` — one config kind's process-wide install stack,
  scope and cached ``REPRO_*`` environment fallback;
* :func:`file_artifacts` and :func:`reshard_for_worker` — every file-backed
  stream in effect, which the parallel runner shards, marks, and cleans up
  after a campaign, and which the CLI reports as written.

:class:`repro.obs.spans.JsonlShards` reads them all back.  Keep any new
durability or sharding rule here so the three artifacts stay in lockstep.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import tempfile
from contextlib import contextmanager, suppress
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)


def repro_version() -> str:
    """The installed package version (metadata first, source as fallback)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - py<3.8 only
        pass
    from repro import __version__

    return __version__


def provenance_doc() -> Dict[str, Any]:
    """The provenance header every JSONL artifact leads with.

    Records what produced the file — package version and the fingerprint
    configuration (if any) — so a shard dug out of a CI artifact months
    later still says which build wrote it.  The single ``"provenance"``
    marker key is what every loader (traces, timelines, fingerprints)
    skips on.
    """
    from repro.obs.fingerprint import configured_fingerprint

    fp = configured_fingerprint()
    doc: Dict[str, Any] = {
        "provenance": 1,
        "repro_version": repro_version(),
    }
    if fp is not None:
        doc["fingerprint"] = {
            "checkpoint_every": fp.checkpoint_every,
            "detail": list(fp.detail) if fp.detail is not None else None,
        }
    return doc


def replace_atomic(path: str, write: Callable[[IO[str]], None]) -> None:
    """Crash-safely replace the file at ``path`` with what ``write`` emits.

    ``write`` fills a temporary file *in the same directory* (same
    filesystem, so the final rename cannot degrade to a copy), which is
    flushed and ``fsync``\\ ed, then moved into place with ``os.replace``
    — readers either see the complete old content, the complete new
    content, or nothing, never a truncated tail.  A process killed
    mid-write leaves only a ``*.tmp`` file that readers ignore (the
    campaign store's ``gc`` sweeps them up).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, doc: Dict[str, Any]) -> None:
    """Crash-safely publish one JSON document at ``path``."""

    def dump(handle: IO[str]) -> None:
        json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")

    replace_atomic(path, dump)


def shard_path(base: str, index: int) -> str:
    """Worker ``index``'s shard of ``base``: ``<stem>.<index><ext>``."""
    stem, ext = os.path.splitext(base)
    return f"{stem}.{index}{ext}"


class DurableJsonlWriter:
    """Streams JSON documents to a file, one object per line.

    The provenance header is the file's first line (``written`` counts
    only documents, not the header).

    Args:
        path: Target file, truncated on open.
        finalize: Also register a ``multiprocessing.util.Finalize`` so
            the writer closes at worker-process exit (worker shards and
            lazily opened artifact writers pass True).

    Attributes:
        path: The file being written.
        written: Number of documents written so far.

    Usable as a context manager; close is idempotent.
    """

    def __init__(self, path: str, finalize: bool = False) -> None:
        self.path = str(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._pid = os.getpid()
        self.written = 0
        self._file.write(json.dumps(provenance_doc(), separators=(",", ":")) + "\n")
        atexit.register(self.close)
        if finalize:
            multiprocessing.util.Finalize(self, self.close, exitpriority=10)

    def write_doc(self, doc: Dict[str, Any]) -> None:
        """Append one JSON document as a single line."""
        if self._file is None:
            return
        self._file.write(json.dumps(doc, separators=(",", ":")))
        self._file.write("\n")
        self.written += 1

    def flush(self) -> None:
        if self._file is not None and self._pid == os.getpid():
            self._file.flush()

    def close(self) -> None:
        if self._file is None:
            return
        if self._pid != os.getpid():
            # Inherited across fork: the buffer (and its unflushed bytes)
            # belong to the parent process.  Keep the reference so nothing
            # here ever flushes the parent's bytes a second time.
            return
        file = self._file
        self._file = None
        file.flush()
        os.fsync(file.fileno())
        file.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - unregister is best-effort
            pass

    def __enter__(self) -> "DurableJsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonlArtifact:
    """A JSONL stream kept in a file, or in memory with ``path=None``.

    The file's writer opens lazily on first use (so an idle config leaves
    no file behind) and closes at worker exit as well as at interpreter
    shutdown.  Subclasses add their own validated fields.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = str(path) if path is not None else None
        self._writer: Optional[DurableJsonlWriter] = None

    def writer(self) -> Optional[DurableJsonlWriter]:
        """The shared (lazily opened) writer, or None (memory mode)."""
        if self.path is None:
            return None
        if self._writer is None:
            self._writer = DurableJsonlWriter(self.path, finalize=True)
        return self._writer

    def reshard(self, index: int) -> None:
        """Re-point a forked worker at its own ``<stem>.<k><ext>`` shard.

        The parent's writer reference (if one was already open) is dropped
        without closing — under fork its buffer is shared with the parent.
        """
        self._writer = None
        if self.path is not None:
            self.path = shard_path(self.path, index)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


ConfigT = TypeVar("ConfigT", bound=JsonlArtifact)


class GlobalArtifact(Generic[ConfigT]):
    """The process-wide activation of one artifact kind.

    Installed configs stack, the newest winning.  With none installed, a
    set ``path_var`` and the raw ``knob_vars`` build one via ``from_env``,
    cached on those raw values so an unchanged environment keeps resolving
    to the same object (and so the same open writer).

    Args:
        kind: Artifact name, as :func:`file_artifacts` reports it.
        path_var: Env var naming the file; unset or empty means off.
        knob_vars: Further env vars, passed raw (``""`` when unset).
        from_env: Builds a config from ``(path, *knob values)``.
    """

    def __init__(
        self,
        kind: str,
        path_var: str,
        knob_vars: Tuple[str, ...],
        from_env: Callable[..., ConfigT],
    ) -> None:
        self.kind = kind
        self.path_var = path_var
        self.knob_vars = knob_vars
        self.from_env = from_env
        self._installed: List[ConfigT] = []
        self._env: Optional[Tuple[Tuple[str, ...], ConfigT]] = None

    def install(self, config: ConfigT) -> ConfigT:
        self._installed.append(config)
        return config

    def remove(self, config: ConfigT) -> None:
        with suppress(ValueError):
            self._installed.remove(config)

    def _env_key(self) -> Optional[Tuple[str, ...]]:
        path = os.environ.get(self.path_var)
        if not path:
            return None
        return (path,) + tuple(os.environ.get(var, "") for var in self.knob_vars)

    def configured(self) -> Optional[ConfigT]:
        """The config in effect: the newest installed one, else the env's."""
        if self._installed:
            return self._installed[-1]
        key = self._env_key()
        if key is None:
            return None
        cached = self._env
        if cached is not None and cached[0] == key:
            return cached[1]
        config = self.from_env(*key)
        self._env = (key, config)
        return config

    @contextmanager
    def scoped(self, config: ConfigT) -> Iterator[ConfigT]:
        """Install ``config`` for the block, then remove and close it."""
        self.install(config)
        try:
            yield config
        finally:
            self.remove(config)
            config.close()

    def reshard_for_worker(self, index: int) -> None:
        """Point this worker's config at its own shard.

        Also rewrites ``path_var`` (when set) so env-activated configs
        resolve to the shard path for the rest of the worker's life.
        """
        config = self.configured()
        if config is None or config.path is None:
            return
        config.reshard(index)
        if os.environ.get(self.path_var):
            os.environ[self.path_var] = config.path
            self._env = (self._env_key(), config)

    def clear(self) -> None:
        """Drop installed and env-cached configs (forked workers, tests)."""
        self._installed.clear()
        self._env = None


class Artifact(NamedTuple):
    """One file-backed JSONL stream in effect (worker ``k`` shards ``path``).

    ``writer`` is None while a lazy one is idle: the parallel runner's
    attempt markers must never force an idle worker shard into existence.
    """

    kind: str  # "trace", "timeline" or "fingerprint"
    path: str
    writer: Optional[DurableJsonlWriter]


def _global_configs() -> Tuple[GlobalArtifact[Any], ...]:
    from repro.obs.fingerprint import FINGERPRINTS
    from repro.obs.recorder import RECORDINGS

    return (RECORDINGS, FINGERPRINTS)


def file_artifacts() -> List[Artifact]:
    """Every file-backed artifact in effect, in a fixed order.

    Process-wide :class:`~repro.obs.trace.JsonlSink`\\ s first, then the
    recording's timeline, then the fingerprint stream; in-memory configs
    and other sink types are not listed.
    """
    from repro.obs import trace

    found = [
        Artifact("trace", sink.path, sink)
        for sink in trace.global_sinks()
        if isinstance(sink, trace.JsonlSink)
    ]
    for slot in _global_configs():
        config = slot.configured()
        if config is not None and config.path is not None:
            found.append(Artifact(slot.kind, config.path, config._writer))
    return found


def reshard_for_worker(index: int) -> None:
    """Point every artifact a forked worker inherited at shard ``index``.

    Inherited trace sinks are dropped without closing — under fork their
    file objects and buffers belong to the parent — and each JSONL one is
    replaced by a sink on its shard, closed at worker exit (workers leave
    through ``os._exit``, so buffered tail events would otherwise be
    lost).  The recording and fingerprint configs re-point their lazy
    writers.
    """
    from repro.obs import trace

    for sink in trace.global_sinks():
        trace.remove_global_sink(sink)
        if isinstance(sink, trace.JsonlSink):
            trace.install_global_sink(
                trace.JsonlSink(shard_path(sink.path, index), finalize=True)
            )
    for slot in _global_configs():
        slot.reshard_for_worker(index)
