"""Single- and dual-worker execution of the per-block encryption work.

Both modes compute, for every message point P_M with nonce k, the pair
(k*G, P_M + k*P_B) in three stages: k*G, k*P_B, and the add, which also
finishes both points.  Single mode runs everything on one worker, the
calling thread.  Dual mode gives worker 1 the k*G products and the add
stage, worker 2 the k*P_B products; worker 1 is the calling thread and
worker 2 the one thread the pipeline starts (pipeline-w2).  The two
exchange partial results through a lock-guarded shared region, one block
at a time:

    worker 1: compute k*G   -> lock, deposit, unlock
    worker 2: compute k*P_B -> lock, deposit, unlock
    worker 1: lock, collect both slots, clear them, unlock -> add, emit

Worker 2 begins once worker 1 has deposited its first k*G.  A worker that
fails aborts the region, which wakes its partner out of any wait; worker 1
joins worker 2 before the failure is reported.

The stages come from curve.encrypt_stages, in the calling thread before
any worker starts.  On the kernel both products stay Jacobian (the slots
carry them so), and the add stage is one kernel call that adds P_M and
makes c1 and c2 affine through the block's one inversion.  k*G comes from
G's cached fixed-base table; k*P_B from a table that a call of at least
FIXED_BASE_MIN_USES blocks builds for that one call, and from the
variable-base multiply in shorter calls.  The pure-Python backend
multiplies with scalar_mul, which makes each product affine, and adds in
Python.

The ciphertext blocks are identical across modes for the same nonces; only
the schedule differs.  Every lock, slot access, and compute span is
recorded in an execution trace for inspection.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .curve import CurveParams, Point, _require_member, encrypt_stages
from .errors import (
    EmptySlot,
    LockNotHeld,
    NotOwner,
    ReentrantLock,
    SlotAlreadyWritten,
    WorkerFailure,
)


class ExecMode(Enum):
    SINGLE = "single"
    DUAL = "dual"

    @classmethod
    def parse(cls, text: str) -> "ExecMode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown execution mode {text!r}") from None


@dataclass(frozen=True)
class CiphertextBlock:
    """One encrypted block: (k*G, P_M + k*P_B)."""

    c1: Point
    c2: Point


EVENT_KINDS = ("lock", "unlock", "write_slot", "read_slot",
               "compute_start", "compute_end")

# global ordering for trace events; next() on the C iterator is atomic
_event_seq = itertools.count()


class TraceEvent(NamedTuple):
    seq: int
    timestamp_ns: int
    worker: int
    kind: str
    slot: str | None = None


class _Recorder:
    """Per-worker event sink; each worker appends only to its own list."""

    __slots__ = ("worker", "events")

    def __init__(self, worker: int):
        self.worker = worker
        self.events: list[TraceEvent] = []

    def __call__(self, kind: str, slot: str | None = None,
                 _seq=_event_seq.__next__, _now=time.monotonic_ns) -> None:
        self.events.append(TraceEvent(_seq(), _now(), self.worker, kind, slot))


@dataclass(frozen=True)
class ExecTrace:
    """Merged event log of one pipeline run plus its wall time."""

    mode: ExecMode
    events: tuple[TraceEvent, ...]
    wall_time_s: float

    def validate(self) -> None:
        """Check lock/unlock alternation and slot-access nesting."""
        holder: int | None = None
        for ev in self.events:
            if ev.kind == "lock":
                if holder is not None:
                    raise ValueError(f"lock by w{ev.worker} while w{holder} holds it")
                holder = ev.worker
            elif ev.kind == "unlock":
                if holder != ev.worker:
                    raise ValueError(f"unlock by w{ev.worker}, holder is {holder}")
                holder = None
            elif ev.kind in ("write_slot", "read_slot"):
                if holder != ev.worker:
                    raise ValueError(
                        f"{ev.kind} by w{ev.worker} outside its critical region"
                    )
            elif ev.kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {ev.kind!r}")
        if holder is not None:
            raise ValueError(f"trace ends with lock held by w{holder}")

    def render(self) -> str:
        """One line per event: '<monotonic_ns> w<id> <event> [slot]'."""
        lines = []
        for ev in self.events:
            suffix = f" {ev.slot}" if ev.slot else ""
            lines.append(f"{ev.timestamp_ns} w{ev.worker} {ev.kind}{suffix}")
        return "\n".join(lines)


class LockHandle:
    """Proof of lock ownership; dies on release and must not change threads."""

    __slots__ = ("region", "worker", "alive", "recorder")

    def __init__(self, region: "SharedRegion", worker: int, recorder=None):
        self.region = region
        self.worker = worker
        self.alive = True
        self.recorder = recorder


class _Cancelled(Exception):
    """Internal: the region was aborted because a worker failed."""


class SharedRegion:
    """Two slots for partial results plus a fair mutual-exclusion lock.

    Slot reads and writes are only honored through a live LockHandle, which
    models hardware where shared memory is touched strictly inside the
    lock/unlock protocol.  Lock handoff is FIFO, so no waiter starves.
    Every wait blocks under the one mutex until a release, a slot change or
    abort() wakes it.
    """

    SLOT_KG = "kG"
    SLOT_KPB = "kPB"
    SLOTS = (SLOT_KG, SLOT_KPB)

    def __init__(self):
        self._mutex = threading.Lock()
        self._changed = threading.Condition(self._mutex)
        self._owner: int | None = None
        self._waiters: deque[tuple[int, threading.Event]] = deque()
        self._values: dict[str, object] = {s: None for s in self.SLOTS}
        self._written: dict[str, bool] = {s: False for s in self.SLOTS}
        self._aborted = False

    # -- lock protocol --

    def acquire(self, worker: int, recorder=None) -> LockHandle:
        """Block until this worker exclusively owns the region."""
        with self._mutex:
            if self._aborted:
                raise _Cancelled()
            if self._owner == worker:
                raise ReentrantLock(f"worker {worker} already holds the lock")
            if self._owner is None and not self._waiters:
                self._owner = worker
                if recorder:
                    recorder("lock")
                return LockHandle(self, worker, recorder)
            gate = threading.Event()
            self._waiters.append((worker, gate))

        gate.wait()
        if self._aborted:
            raise _Cancelled()
        if recorder:
            recorder("lock")
        return LockHandle(self, worker, recorder)

    def release(self, handle: LockHandle) -> None:
        if not isinstance(handle, LockHandle) or handle.region is not self:
            raise NotOwner("handle does not belong to this region")
        with self._mutex:
            if not handle.alive or self._owner != handle.worker:
                raise NotOwner(
                    f"handle of worker {handle.worker} cannot release; "
                    f"current owner is {self._owner}"
                )
            handle.alive = False
            if handle.recorder:
                handle.recorder("unlock")
            if self._waiters:
                worker, gate = self._waiters.popleft()
                self._owner = worker   # handoff keeps the order fair
                gate.set()
            else:
                self._owner = None

    def abort(self) -> None:
        """Wake every waiter; it and every later wait raise _Cancelled."""
        with self._mutex:
            self._aborted = True
            for _, gate in self._waiters:
                gate.set()
            self._waiters.clear()
            self._changed.notify_all()

    # -- slot access, valid only while holding the lock --

    def _check_held(self, handle: LockHandle, slot: str) -> None:
        if slot not in self.SLOTS:
            raise ValueError(f"unknown slot {slot!r}; expected one of {self.SLOTS}")
        if (not isinstance(handle, LockHandle) or handle.region is not self
                or not handle.alive or self._owner != handle.worker):
            raise LockNotHeld(f"slot {slot!r} access without holding the lock")

    def write(self, handle: LockHandle, slot: str, value) -> None:
        self._check_held(handle, slot)
        with self._changed:
            if self._written[slot]:
                raise SlotAlreadyWritten(f"slot {slot!r} already written this round")
            self._values[slot] = value
            self._written[slot] = True
            self._changed.notify_all()
        if handle.recorder:
            handle.recorder("write_slot", slot)

    def read(self, handle: LockHandle, slot: str):
        self._check_held(handle, slot)
        if not self._written[slot]:
            raise EmptySlot(f"slot {slot!r} is empty")
        if handle.recorder:
            handle.recorder("read_slot", slot)
        return self._values[slot]

    def reset(self, handle: LockHandle) -> None:
        """Return both slots to empty; done between blocks by worker 1."""
        self._check_held(handle, self.SLOT_KG)
        with self._changed:
            for slot in self.SLOTS:
                self._values[slot] = None
                self._written[slot] = False
            self._changed.notify_all()

    def wait_for_slot(self, slot: str, written: bool) -> None:
        """Block until the slot's written-state matches; the lock is NOT held.

        Each slot has a single writer and a single consumer, so a state
        observed here cannot be flipped by anyone but the caller's own
        follow-up lock/access cycle.
        """
        if slot not in self.SLOTS:
            raise ValueError(f"unknown slot {slot!r}; expected one of {self.SLOTS}")
        with self._changed:
            while self._written[slot] != written:
                if self._aborted:
                    raise _Cancelled()
                self._changed.wait()


def _validated_nonces(c: CurveParams, nonces, count: int) -> list[int]:
    ks = list(itertools.islice(iter(nonces), count))
    if len(ks) != count:
        raise ValueError(f"nonce source yielded {len(ks)} values; need {count}")
    for k in ks:
        if not isinstance(k, int) or not 1 <= k <= c.n - 1:
            raise ValueError(f"nonce {k!r} outside [1, {c.n - 1}]")
    return ks


def run_encrypt_pipeline(
    c: CurveParams,
    message_points,
    public: Point,
    nonces,
    mode: ExecMode = ExecMode.SINGLE,
):
    """Encrypt pre-encoded points; returns (blocks, trace).

    Output blocks are identical in content and order for both modes given
    the same nonce sequence.
    """
    points = list(message_points)
    for i, pt in enumerate(points):
        _require_member(c, pt, f"message point {i}")
    _require_member(c, public, "public point")
    ks = _validated_nonces(c, nonces, len(points))
    # made before the workers start, so both modes share them read-only
    mul_g, mul_pb, finish = encrypt_stages(c, public, len(points))

    out: list[CiphertextBlock] = []
    w2_failure: list[BaseException] = []

    if mode == ExecMode.SINGLE:
        rec = _Recorder(1)
        recorders = [rec]

        def worker_one():
            for pm, k in zip(points, ks):
                rec("compute_start")
                kg = mul_g(k)
                rec("compute_end")
                rec("compute_start")
                kpb = mul_pb(k)
                rec("compute_end")
                rec("compute_start")
                c1, c2 = finish(kg, kpb, pm)
                rec("compute_end")
                out.append(CiphertextBlock(c1, c2))

    elif mode == ExecMode.DUAL:
        region = SharedRegion()
        rec1 = _Recorder(1)
        rec2 = _Recorder(2)
        recorders = [rec1, rec2]

        def worker_two():
            try:
                # begin once worker 1 has deposited its first k*G, so that
                # every trace opens with worker 1's first lock cycle
                region.wait_for_slot(SharedRegion.SLOT_KG, written=True)
                for k in ks:
                    rec2("compute_start")
                    kpb = mul_pb(k)
                    rec2("compute_end")

                    # wait for worker 1 to clear the previous round
                    region.wait_for_slot(SharedRegion.SLOT_KPB, written=False)
                    handle = region.acquire(2, rec2)
                    region.write(handle, SharedRegion.SLOT_KPB, kpb)
                    region.release(handle)
            except _Cancelled:
                pass  # worker 1 failed, or had no block; it reports a failure
            except BaseException as exc:
                w2_failure.append(exc)
                region.abort()

        def worker_one():
            w2 = threading.Thread(target=worker_two, name="pipeline-w2")
            w2.start()
            try:
                for pm, k in zip(points, ks):
                    rec1("compute_start")
                    kg = mul_g(k)
                    rec1("compute_end")

                    handle = region.acquire(1, rec1)
                    region.write(handle, SharedRegion.SLOT_KG, kg)
                    region.release(handle)

                    # collect both halves once the partner result lands
                    region.wait_for_slot(SharedRegion.SLOT_KPB, written=True)
                    handle = region.acquire(1, rec1)
                    kg = region.read(handle, SharedRegion.SLOT_KG)
                    kpb = region.read(handle, SharedRegion.SLOT_KPB)
                    region.reset(handle)
                    region.release(handle)

                    rec1("compute_start")
                    c1, c2 = finish(kg, kpb, pm)
                    rec1("compute_end")
                    out.append(CiphertextBlock(c1, c2))
            finally:
                # wakes worker 2 if this loop raised or had no block; once
                # both loops are done, worker 2 waits for nothing more
                region.abort()
                w2.join()

    else:
        raise ValueError(f"unknown execution mode {mode!r}")

    start = time.perf_counter()
    try:
        worker_one()
    except _Cancelled:
        pass  # worker 2 failed and aborted the region; reported below
    except Exception as exc:
        raise WorkerFailure(1, repr(exc)) from exc
    wall = time.perf_counter() - start

    if w2_failure:
        raise WorkerFailure(2, repr(w2_failure[0])) from w2_failure[0]

    events = tuple(sorted(
        (ev for r in recorders for ev in r.events), key=lambda ev: ev.seq
    ))
    return out, ExecTrace(mode, events, wall)
