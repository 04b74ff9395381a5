"""Shared-memory result ring: the local data plane of the cluster runtime.

A worker the master spawned on its own host (``backend="processes"`` /
``"cluster"``, the service's shared fleet) does not push a large
quantum's :class:`~repro.sim.task.ResultBlock` through its socket -- for
a 1024-trajectory block that is megabytes copied into a frame, out of
it, and once more into the aligner's ring.  It *publishes* the block's
arrays into :mod:`multiprocessing.shared_memory` pages instead: the
result frame carries only a small picklable descriptor
(:class:`ShmBlock`), and the master maps the pages and hands the aligner
NumPy views straight over shared memory.  Workers that joined over the
network never get a prefix and keep sending results in band.

Lifecycle is explicit and master-owned:

* the **worker** creates one segment per quantum (the block's ``times``
  and ``values`` packed back to back), immediately detaches its own
  ``resource_tracker`` registration (so a worker exiting does not yank
  pages the master still reads) and closes its mapping;
* the **master** attaches and wraps the mapping in a refcounted
  :class:`Segment` owned by the block(s) mapped from it.  The consumer
  calls ``ResultBlock.release()`` after ingesting the samples (the
  master itself for a block it drops: stale, or nobody waiting); the
  last release closes *and unlinks* the segment;
* segment names embed a per-master prefix (master pid + random token),
  so :func:`sweep_orphans` -- run by ``ClusterMaster.close()`` -- can
  reclaim pages leaked by a worker that died between publishing and
  sending without ever touching another master's segments.

Every quantum is one :class:`~repro.sim.task.ResultBlock`, a scalar
task's too (a block of one trajectory).  A block under
:data:`SHM_MIN_BYTES` -- a bare done marker, a typical scalar quantum --
rides inline in the descriptor: shared-memory setup costs more than
pickling below that.
"""

from __future__ import annotations

import glob
import os
import secrets
import threading
from itertools import count
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.sim.task import ResultBlock

#: every segment name starts with this; the per-master prefix appends the
#: master pid and a random token (see :func:`make_prefix`)
SEGMENT_PREFIX = "repro-shm"

#: below this many payload bytes per quantum, the socket wins (one
#: shm_open + ftruncate + mmap + unlink round trip costs more than
#: copying a few KB through the result frame)
SHM_MIN_BYTES = 4096

_ALIGN = 8
_counter = count()

# where POSIX shared memory shows up as files (Linux); sweep/leak
# detection degrade to no-ops elsewhere
_SHM_DIR = "/dev/shm"


def make_prefix(master_pid: Optional[int] = None,
                tag: Optional[str] = None) -> str:
    """A per-master segment-name prefix: ``repro-shm-<masterpid>-<token>``
    (or ``repro-shm-<masterpid>-<tag>-<token>`` with a ``tag``).

    The pid scopes leak detection to this master process; the random
    token keeps concurrent masters inside one process (e.g. parallel
    test threads) from sweeping each other's segments.  ``tag`` embeds
    a human-readable namespace for ``ls /dev/shm``.
    """
    pid = os.getpid() if master_pid is None else master_pid
    middle = f"-{tag}" if tag else ""
    return f"{SEGMENT_PREFIX}-{pid}{middle}-{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness: signal 0 probes existence; EPERM means the
    pid exists but belongs to someone else -- alive either way."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def sweep_dead_owners() -> list[str]:
    """Reclaim segments whose owning master process is gone.

    Per-master sweeps (:func:`sweep_orphans`) only cover prefixes the
    sweeping process still knows.  A master that *crashed* -- or a
    service that was SIGKILLed mid-run -- leaves segments behind that no
    surviving prefix names.  Segment names embed the owner's pid
    (``repro-shm-<pid>-...``), so a long-lived service can reclaim them
    at startup: any segment whose owner pid is no longer alive is
    unlinked.  Segments of live processes (including our own) are never
    touched; unparseable names are skipped.  Returns the swept names.
    """
    if not os.path.isdir(_SHM_DIR):
        return []
    swept = []
    pattern = os.path.join(_SHM_DIR, SEGMENT_PREFIX + "-*")
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        rest = name[len(SEGMENT_PREFIX) + 1:]
        pid_str = rest.split("-", 1)[0]
        if not pid_str.isdigit():
            continue
        if _pid_alive(int(pid_str)):
            continue
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue
        swept.append(name)
    return swept


def _untrack(name: str) -> None:
    """Take a segment's name off this process's resource tracker.

    ``SharedMemory(create=True)`` registers the name with
    :mod:`multiprocessing.resource_tracker`, which would unlink the
    pages when the creating worker exits -- while the master may still
    be reading them.  Lifecycle here is explicit (:class:`Segment` /
    :func:`sweep_orphans`), so the creator opts out.  Attaching
    registers too (before Python 3.13) and ``unlink()`` takes the name
    off again, except when the file is already gone: the one case the
    map side calls this.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - tracker quirks must not kill I/O
        pass


class Segment:
    """Master-side handle of one mapped segment, shared by the result
    blocks mapped from it (one, for a quantum a worker published).

    Consumers decrement via :meth:`release`; the last release closes the
    mapping and unlinks the backing pages.  Thread-safe: the master
    thread releases blocks it drops while the aligner thread releases
    the ones it ingests.
    """

    __slots__ = ("_shm", "_refs", "_lock")

    def __init__(self, shm: shared_memory.SharedMemory, refs: int):
        if refs < 1:
            raise ValueError("refs must be >= 1")
        self._shm = shm
        self._refs = refs
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def refs(self) -> int:
        return self._refs

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs:
                return
        # unlink first so leak detection sees the name gone even if the
        # close below is refused; then unmap.  close() really does unmap
        # under any still-live numpy view (no BufferError guard on this
        # platform), which is why ResultBlock.release severs its array
        # attributes before handing the reference back.
        try:
            self._shm.unlink()
        except FileNotFoundError:
            # already swept (an orphan sweep raced us); unlink() only
            # tells the resource tracker after a successful shm_unlink,
            # and a name left there is reported as leaked at exit
            _untrack(self._shm.name)
        try:
            self._shm.close()
        except BufferError:
            pass  # exported views left; GC closes when they go


class ShmCoalescedEntry:
    """Descriptor of one :class:`~repro.sim.task.ResultBlock` whose
    ``times`` / ``values`` arrays live in the segment."""

    __slots__ = ("task_ids", "grid_start", "done", "times_offset",
                 "values_offset", "n_grid", "n_obs")

    def __init__(self, task_ids, grid_start, done, times_offset,
                 values_offset, n_grid, n_obs):
        self.task_ids = task_ids
        self.grid_start = grid_start
        self.done = done
        self.times_offset = times_offset
        self.values_offset = values_offset
        self.n_grid = n_grid
        self.n_obs = n_obs

    def __getstate__(self):
        return (self.task_ids, self.grid_start, self.done,
                self.times_offset, self.values_offset, self.n_grid,
                self.n_obs)

    def __setstate__(self, state):
        (self.task_ids, self.grid_start, self.done, self.times_offset,
         self.values_offset, self.n_grid, self.n_obs) = state


class ShmBlock:
    """The picklable message a worker returns for one quantum: inline
    results interleaved (in original order) with
    :class:`ShmCoalescedEntry` descriptors pointing into the named
    segment.

    ``name is None`` means the whole quantum rode inline (payload under
    :data:`SHM_MIN_BYTES`).
    """

    __slots__ = ("name", "payload_nbytes", "entries")

    def __init__(self, name: Optional[str], payload_nbytes: int,
                 entries: list):
        self.name = name
        self.payload_nbytes = payload_nbytes
        self.entries = entries

    def __getstate__(self):
        return (self.name, self.payload_nbytes, self.entries)

    def __setstate__(self, state):
        self.name, self.payload_nbytes, self.entries = state


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _copy_into(shm: shared_memory.SharedMemory, offset: int,
               arr: np.ndarray) -> None:
    """Copy ``arr`` into the segment at ``offset``.  The scratch view
    must not outlive this call: ``SharedMemory.close`` unmaps the pages
    with no regard for exported buffers."""
    dst = np.ndarray(arr.shape, np.float64, buffer=shm.buf, offset=offset)
    dst[:] = arr
    del dst


def publish_results(results: list, prefix: str) -> ShmBlock:
    """Worker side: pack the sample arrays of the quantum's result
    block into one fresh segment and return the descriptor block.

    A block whose arrays total under :data:`SHM_MIN_BYTES` (a bare done
    marker, a small scalar quantum) stays inline; if nothing is left to
    share, no segment is created.
    """
    total = 0
    packed = {}
    for result in results:
        nbytes = _aligned(result._times.nbytes) + result._values.nbytes
        if nbytes >= SHM_MIN_BYTES:
            times = np.ascontiguousarray(result._times, dtype=np.float64)
            values = np.ascontiguousarray(result._values, dtype=np.float64)
            packed[id(result)] = (times, values)
            total = _aligned(total + times.nbytes)
            total = _aligned(total + values.nbytes)
    if not packed:
        return ShmBlock(None, 0, list(results))

    name = f"{prefix}-{os.getpid()}-{next(_counter)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        # from here the segment exists on disk: if this process dies
        # before the return value reaches the master, only the master's
        # sweep can reclaim it -- exactly the orphan case sweep_orphans
        # and the chaos test cover
        _untrack(name)
        entries = []
        offset = 0
        for result in results:
            arrays = packed.get(id(result))
            if arrays is None:
                entries.append(result)
                continue
            times, values = arrays
            t_off = offset
            _copy_into(shm, t_off, times)
            offset = _aligned(t_off + times.nbytes)
            v_off = offset
            _copy_into(shm, v_off, values)
            offset = _aligned(v_off + values.nbytes)
            entries.append(ShmCoalescedEntry(
                result.task_ids, result.grid_start, result.done,
                t_off, v_off, result.n_grid, values.shape[2]))
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    shm.close()  # the worker's mapping; the pages stay until unlink
    return ShmBlock(name, total, entries)


def map_results(block: ShmBlock) -> list:
    """Master side: turn a descriptor block back into results.

    Shared-memory entries become :class:`~repro.sim.task.ResultBlock`
    objects whose arrays are zero-copy views over the mapped pages, all
    tied to one refcounted :class:`Segment` (one reference per mapped
    block); the caller must see each one released exactly once.  Inline
    entries pass through untouched.
    """
    if block.name is None:
        return list(block.entries)
    n_mapped = sum(1 for e in block.entries
                   if isinstance(e, ShmCoalescedEntry))
    shm = shared_memory.SharedMemory(name=block.name)
    segment = Segment(shm, refs=n_mapped)
    results = []
    for entry in block.entries:
        if not isinstance(entry, ShmCoalescedEntry):
            results.append(entry)
            continue
        times = np.ndarray((entry.n_grid,), np.float64,
                           buffer=shm.buf, offset=entry.times_offset)
        values = np.ndarray(
            (len(entry.task_ids), entry.n_grid, entry.n_obs), np.float64,
            buffer=shm.buf, offset=entry.values_offset)
        mapped = ResultBlock(entry.task_ids, entry.grid_start, times,
                             values, entry.done)
        mapped.attach_segment(segment)
        results.append(mapped)
    return results


def leaked_segments(prefix: str) -> list[str]:
    """Names of segments under ``prefix`` still present on disk."""
    if not os.path.isdir(_SHM_DIR):
        return []
    return sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(_SHM_DIR, prefix + "-*")))


def sweep_orphans(prefix: str) -> list[str]:
    """Unlink every leftover segment under ``prefix``; returns their
    names.

    Called when a master closes (normally or not): a worker that died
    between creating a segment and the master mapping it leaves pages
    nobody will ever release.  Safe against concurrent releases -- both sides
    tolerate an already-unlinked segment.
    """
    swept = []
    for name in leaked_segments(prefix):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:
            continue
        swept.append(name)
    return swept
