"""Zero-copy shared-memory data plane for cross-process evaluators.

:class:`~repro.engine.executors.ParallelExecutor` ships the evaluator to
worker processes whenever the start method pickles (``spawn``, and every
watchdog respawn under it).  The dataset arrays dominate that payload —
hundreds of megabytes serialized per spawn for a large run.  This module
publishes them **once per run** as named POSIX shared-memory blocks and
replaces the arrays inside the pickled evaluator with tiny
:class:`ArenaRef` placeholders; workers attach read-only views instead of
receiving copies.

Integrity and lifecycle are the hard part, not the mapping:

- Every published block carries a keyed **blake2b digest** of its bytes;
  :func:`attach` re-hashes the mapped buffer and refuses a mismatch
  (:class:`ArenaIntegrityError`) — a torn or recycled segment can never
  silently feed wrong data into a fold.
- Block names embed the **owner pid** (``repro-arena-<pid>-<tag>-<key>``)
  so :func:`reap_stale` can identify segments whose owner died without
  unlinking (SIGKILL mid-run) and remove them before the next publish —
  a crashed run cannot leak ``/dev/shm`` space past its successor.
- Attaching processes bypass multiprocessing's **resource tracker**: on
  Python < 3.13 ``SharedMemory(create=False)`` registers the segment,
  and the tracker would otherwise *unlink the parent's segment* when the
  first worker exits (a watchdog kill, say).  The parent alone
  owns unlinking, in :meth:`SharedArena.close`.
- Publish, attach and unlink are :func:`~repro.faults.points.fault_point`
  sites (``arena.create`` / ``arena.attach`` / ``arena.unlink``), so the
  crash-schedule explorer can enumerate failures at each step.

When shared memory is unavailable (platform without ``/dev/shm``, size
limits, permissions) publishing raises :class:`ArenaError` and the
executor falls back to plain pickling — the transport changes, results
do not (workers verify nothing less either way; the evaluator bytes are
identical).
"""

from __future__ import annotations

import hashlib
import os
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults.points import fault_point

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "ARENA_PREFIX",
    "ArenaError",
    "ArenaIntegrityError",
    "ArenaRef",
    "SharedArena",
    "arena_available",
    "attach",
    "list_segments",
    "reap_stale",
]

#: Leading component of every arena segment name; the reaper only ever
#: touches names with this prefix, so unrelated shared memory is safe.
ARENA_PREFIX = "repro-arena"

#: Where POSIX shared memory appears as files (Linux).  Reaping degrades
#: to a no-op where this directory does not exist.
_SHM_DIR = "/dev/shm"

#: Digest size (bytes) of the content hash carried on every ref.
_DIGEST_BYTES = 16


class ArenaError(RuntimeError):
    """Shared-memory publishing or attachment failed (fallback: pickle)."""


class ArenaIntegrityError(ArenaError):
    """An attached segment's bytes do not match the publisher's digest."""


def arena_available() -> bool:
    """Whether this platform can publish shared-memory segments at all."""
    return shared_memory is not None


def _content_digest(view) -> str:
    """Keyed blake2b hex digest of a buffer's raw bytes."""
    return hashlib.blake2b(bytes(view), digest_size=_DIGEST_BYTES).hexdigest()


@dataclass(frozen=True)
class ArenaRef:
    """Placeholder for one published array: everything attach needs.

    Travels inside the pickled evaluator in place of the array itself.
    ``shape``/``dtype`` reconstruct the view; ``digest`` lets the worker
    prove it mapped the bytes the parent published; ``nbytes`` guards
    against a same-name segment of the wrong size before hashing.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    digest: str
    nbytes: int


class SharedArena:
    """Parent-side owner of one run's published shared-memory blocks.

    The publishing process is the only one that ever unlinks — workers
    attach and detach views, but segment lifetime is bound to
    :meth:`close` (or the owner's death plus a successor's
    :func:`reap_stale`).  Use as a context manager for scope-bound runs.
    """

    def __init__(self) -> None:
        if not arena_available():
            raise ArenaError("multiprocessing.shared_memory is unavailable on this platform")
        self._tag = secrets.token_hex(4)
        self._segments: Dict[str, "shared_memory.SharedMemory"] = {}
        self.refs: Dict[str, ArenaRef] = {}

    def publish(self, key: str, array: np.ndarray) -> ArenaRef:
        """Copy one array into a fresh named segment; return its ref.

        The segment name embeds the owner pid (for stale reaping) and a
        per-arena random tag (so two arenas in one process never
        collide).  Raises :class:`ArenaError` on any OS-level failure —
        the caller degrades to pickle transport.
        """
        array = np.ascontiguousarray(array)
        name = f"{ARENA_PREFIX}-{os.getpid()}-{self._tag}-{key}"
        fault_point("arena.create", key=key, nbytes=int(array.nbytes))
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, int(array.nbytes))
            )
        except OSError as exc:
            raise ArenaError(f"could not create shared segment {name!r}: {exc}") from exc
        try:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            ref = ArenaRef(
                name=name,
                shape=tuple(int(n) for n in array.shape),
                dtype=str(array.dtype),
                digest=_content_digest(segment.buf[: array.nbytes]),
                nbytes=int(array.nbytes),
            )
        except Exception:
            segment.close()
            try:
                segment.unlink()
            except OSError:
                pass
            raise
        self._segments[name] = segment
        self.refs[key] = ref
        return ref

    def publish_all(self, arrays: Dict[str, np.ndarray]) -> Dict[str, ArenaRef]:
        """Publish several arrays atomically: all succeed or all unlink."""
        try:
            return {key: self.publish(key, array) for key, array in arrays.items()}
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        """Unlink every published segment (idempotent, never raises).

        Called from the executor's shutdown path — which runs on engine
        close, whatever the watchdog respawned before — so a clean
        process exit can never leak ``/dev/shm`` space.
        """
        for name, segment in list(self._segments.items()):
            fault_point("arena.unlink", key=name)
            try:
                segment.close()
            except (OSError, BufferError):
                pass
            try:
                segment.unlink()
            except (OSError, FileNotFoundError):
                pass
            self._segments.pop(name, None)
        self.refs.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()


#: Process-local registry of attached segments: the mapped buffers must
#: outlive every array view handed out, so handles live for the process.
_ATTACHED: Dict[str, "shared_memory.SharedMemory"] = {}


def _open_untracked(name: str) -> "shared_memory.SharedMemory":
    """Map an existing segment without registering it with the tracker.

    On Python < 3.13 ``SharedMemory(create=False)`` registers the name
    with the resource tracker, which then unlinks it when *any* attached
    process exits — destroying the owner's segment under live siblings.
    Registration is suppressed for the duration of the constructor; the
    owner process alone is registered and alone unlinks.
    """
    if resource_tracker is None:
        return shared_memory.SharedMemory(name=name, create=False)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


def attach(ref: ArenaRef) -> np.ndarray:
    """Map one published block read-only and verify its content digest.

    Safe to call repeatedly for the same ref (the mapping is cached
    per-process).  The segment is never registered with the resource
    tracker, so this process's exit can never unlink the owner's segment.
    """
    if not arena_available():
        raise ArenaError("multiprocessing.shared_memory is unavailable on this platform")
    fault_point("arena.attach", key=ref.name)
    segment = _ATTACHED.get(ref.name)
    if segment is None:
        try:
            segment = _open_untracked(ref.name)
        except (OSError, FileNotFoundError) as exc:
            raise ArenaError(f"shared segment {ref.name!r} is gone: {exc}") from exc
        if segment.size < ref.nbytes:
            segment.close()
            raise ArenaIntegrityError(
                f"shared segment {ref.name!r} holds {segment.size} bytes, "
                f"expected at least {ref.nbytes}"
            )
        digest = _content_digest(segment.buf[: ref.nbytes])
        if digest != ref.digest:
            segment.close()
            raise ArenaIntegrityError(
                f"shared segment {ref.name!r} content digest {digest} does not "
                f"match the published {ref.digest}"
            )
        _ATTACHED[ref.name] = segment
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
    view.flags.writeable = False
    return view


def detach_all() -> None:
    """Close every cached attachment (test hygiene; never unlinks)."""
    for name, segment in list(_ATTACHED.items()):
        try:
            segment.close()
        except (OSError, BufferError):
            pass
        _ATTACHED.pop(name, None)


def list_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """Names of every live arena segment on this machine (Linux only)."""
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(ARENA_PREFIX))


def _owner_pid(segment_name: str) -> Optional[int]:
    """Owner pid embedded in an arena segment name, if parseable."""
    parts = segment_name.split("-")
    # repro-arena-<pid>-<tag>-<key>
    if len(parts) < 5 or parts[0] != "repro" or parts[1] != "arena":
        return None
    try:
        return int(parts[2])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


def reap_stale(shm_dir: str = _SHM_DIR) -> List[str]:
    """Unlink arena segments whose owner process is dead; return their names.

    Run before every publish: a run killed with SIGKILL never executes
    its unlink path, so its successor sweeps the orphans.  Only names
    matching the arena convention with a dead embedded pid are touched.
    """
    reaped: List[str] = []
    for segment_name in list_segments(shm_dir):
        pid = _owner_pid(segment_name)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            # Plain (tracked) open: unlink() below unregisters the very
            # registration this constructor makes, so they balance out.
            stale = shared_memory.SharedMemory(name=segment_name, create=False)
        except (OSError, FileNotFoundError):
            continue
        fault_point("arena.unlink", key=segment_name, stale=True)
        try:
            stale.close()
            stale.unlink()
        except (OSError, FileNotFoundError):
            continue
        reaped.append(segment_name)
    return reaped
