"""Shared-memory segment lifecycle: publish, attach, verify, unlink.

Ownership rules (the whole leak story in three lines):

* only the **parent** ever creates segments — it registers every one
  for unlink at process exit, so a normally-exiting parent leaves
  ``/dev/shm`` clean no matter how its pools died;
* **workers** only attach; each attach immediately unregisters the
  mapping from ``multiprocessing.resource_tracker`` so a dying worker
  neither unlinks a segment it does not own (Python < 3.13 registers
  every attach for cleanup) nor emits "leaked shared_memory" warnings;
* a segment name encodes a **content hash**, and the blob embeds a
  digest over its payload — so a stale segment from a SIGKILLed
  previous parent is either *adopted* (digest matches: same content,
  re-registered for cleanup) or unlinked and re-created (corrupt).
  Hard-killed parents can therefore leak at most until the next
  publisher with the same content comes along, and never serve stale
  bytes.

Blob format: ``b"RSHM0001" | uint64 payload length | sha256(payload) |
payload``.  The segment may be larger than the blob (the kernel rounds
to page size); the header length bounds every read.
"""

from __future__ import annotations

import atexit
import hashlib
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional

from ..errors import BatchError

#: Every segment this package creates starts with this prefix; the
#: chaos suite sweeps ``/dev/shm`` for it to assert zero leaks.
SEGMENT_PREFIX = "repro-"

_MAGIC = b"RSHM0001"
_HEADER = struct.Struct(f"<{len(_MAGIC)}sQ32s")


class ShmFormatError(BatchError):
    """A segment exists but does not carry a valid blob."""


class _PinnedSharedMemory(shared_memory.SharedMemory):
    """A mapping that tolerates living until interpreter shutdown.

    Zero-copy arrays hydrated from a segment may still alias its
    buffer when ``__del__`` finally runs, where the stock ``close()``
    raises ``BufferError: cannot close exported pointers exist`` and
    CPython prints an "Exception ignored" traceback.  Mappings here
    are deliberately process-lifetime, so that is not an error."""

    def __del__(self) -> None:
        try:
            super().__del__()
        except BufferError:
            pass


#: Parent-side: segments this process created (or adopted), unlinked at
#: exit.  Maps name -> SharedMemory.
_PUBLISHED: Dict[str, shared_memory.SharedMemory] = {}

#: Child-side: attached segments; held so zero-copy views stay valid.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}

_ATEXIT_INSTALLED = False


def _install_atexit() -> None:
    global _ATEXIT_INSTALLED
    if not _ATEXIT_INSTALLED:
        _ATEXIT_INSTALLED = True
        atexit.register(unlink_all)


def _wrap(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(_MAGIC, len(payload), digest) + payload


def _read_payload(shm: shared_memory.SharedMemory) -> memoryview:
    """Validated zero-copy payload view of an open segment."""
    buf = shm.buf
    if buf is None or len(buf) < _HEADER.size:
        raise ShmFormatError(f"segment {shm.name}: too small for header")
    magic, length, digest = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ShmFormatError(f"segment {shm.name}: bad magic")
    end = _HEADER.size + length
    if end > len(buf):
        raise ShmFormatError(f"segment {shm.name}: truncated payload")
    payload = buf[_HEADER.size:end]
    if hashlib.sha256(payload).digest() != digest:
        raise ShmFormatError(f"segment {shm.name}: payload digest mismatch")
    return payload


def publish_blob(name: str, payload: bytes) -> str:
    """Create (or adopt) segment ``name`` holding ``payload``.

    Parent-side only.  The segment is registered for unlink at process
    exit.  If a segment with this name already exists — a concurrent
    publisher, or a leak from a hard-killed previous run — its digest
    is checked: matching content is adopted as-is (content-hash names
    make this safe), anything else is unlinked and re-created.
    Publishing the same name twice in one process is a no-op.
    """
    if not name.startswith(SEGMENT_PREFIX):
        raise BatchError(
            f"shm segment name {name!r} must start with {SEGMENT_PREFIX!r}"
        )
    if name in _PUBLISHED:
        return name
    blob = _wrap(payload)
    _install_atexit()
    try:
        shm = _PinnedSharedMemory(name=name, create=True, size=len(blob))
    except FileExistsError:
        existing = _adopt_or_unlink(name, payload)
        if existing is not None:
            _PUBLISHED[name] = existing
            return name
        shm = _PinnedSharedMemory(name=name, create=True, size=len(blob))
    shm.buf[: len(blob)] = blob
    _PUBLISHED[name] = shm
    return name


def _adopt_or_unlink(
    name: str, payload: bytes
) -> Optional[shared_memory.SharedMemory]:
    """Existing segment with our name: adopt if its payload matches,
    else unlink the stale corpse so the caller can re-create."""
    try:
        shm = _PinnedSharedMemory(name=name)
    except FileNotFoundError:
        return None  # raced with another process's unlink
    # Attaching registered the segment with our resource tracker.  That
    # registration is left in place: whichever ``unlink()`` eventually
    # runs (right below on mismatch, or ``unlink_all`` at exit on
    # adoption) unregisters exactly once — an extra manual unregister
    # here would make the tracker complain about the later unlink.
    match = False
    try:
        existing = _read_payload(shm)
        match = existing == payload
        existing.release()  # else close() below sees an exported view
    except ShmFormatError:
        pass
    if match:
        return shm
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    shm.close()
    return None


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove an *attached* segment from this process's resource
    tracker.  Python < 3.13 registers every attach for unlink-at-exit,
    which would (a) destroy a segment the parent still owns when any
    worker exits and (b) spam "leaked shared_memory objects" warnings
    for mappings that are deliberately long-lived.  The tracker API is
    semi-public but stable; a missing/changed API degrades to tracked
    behaviour rather than an error."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def attach_blob(name: str) -> Optional[memoryview]:
    """Attach segment ``name`` and return its validated payload view.

    Child-side.  Returns ``None`` when the segment does not exist or
    fails validation — attach is always best-effort, the caller falls
    back to rebuilding.  The mapping is cached for the process
    lifetime (zero-copy views alias it) and unregistered from the
    resource tracker: this process does not own the segment.
    """
    owned = _PUBLISHED.get(name)
    if owned is not None:
        # This process published the segment; serve the payload from
        # the owned mapping rather than opening (and untracking) a
        # second attachment that would fight the tracker registration.
        try:
            return _read_payload(owned)
        except ShmFormatError:
            return None
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            shm = _PinnedSharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return None
        _untrack(shm)
        _ATTACHED[name] = shm
    try:
        return _read_payload(shm)
    except ShmFormatError:
        _ATTACHED.pop(name, None)
        shm.close()
        return None


def published_segments() -> List[str]:
    """Names this process has published (parent-side diagnostics)."""
    return sorted(_PUBLISHED)


def unlink_all() -> None:
    """Unlink every segment this process published.  Runs at exit;
    idempotent; safe against segments someone else already removed."""
    while _PUBLISHED:
        _name, shm = _PUBLISHED.popitem()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        try:
            shm.close()
        except Exception:
            pass


def detach_all() -> None:
    """Close every attached mapping (child-side; test teardown).  Any
    zero-copy array hydrated from these segments becomes invalid."""
    while _ATTACHED:
        _name, shm = _ATTACHED.popitem()
        try:
            shm.close()
        except Exception:
            pass
