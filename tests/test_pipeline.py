import faulthandler
import random
import re
import threading
import time

import pytest

from ecelgamal import _native
from ecelgamal import curve as curve_mod
from ecelgamal import pipeline as pipeline_mod
from ecelgamal.curve import IDENTITY, Point, scalar_mul
from ecelgamal.elgamal import decrypt_block, keygen
from ecelgamal.errors import (
    EmptySlot,
    LockNotHeld,
    NotOwner,
    OffCurveInput,
    ReentrantLock,
    SlotAlreadyWritten,
    WorkerFailure,
)
from ecelgamal.pipeline import (
    ExecMode,
    ExecTrace,
    LockHandle,
    SharedRegion,
    TraceEvent,
    _Cancelled,
    run_encrypt_pipeline,
)


@pytest.fixture(autouse=True)
def hang_guard():
    """Waits block without a timeout, so a lost wake-up would hang the run;
    past 120 s, print every thread's stack and exit instead."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


class TestRegionBasics:
    def test_new_region_unlocked_and_empty(self):
        region = SharedRegion()
        handle = region.acquire(1)  # free: a held lock would block here
        for slot in SharedRegion.SLOTS:
            with pytest.raises(EmptySlot):
                region.read(handle, slot)
        region.release(handle)

    def test_read_before_write_is_error(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        with pytest.raises(EmptySlot):
            region.read(handle, "kG")
        region.release(handle)

    def test_acquire_release_cycle(self):
        region = SharedRegion()
        h1 = region.acquire(1)
        # held by worker 1: worker 2's handle may not release it
        with pytest.raises(NotOwner):
            region.release(LockHandle(region, 2))
        region.release(h1)
        # free again: worker 2 takes it at once, and then owns it
        h2 = region.acquire(2)
        with pytest.raises(NotOwner):
            region.release(LockHandle(region, 1))
        region.release(h2)

    def test_reentrant_acquire_detected(self):
        region = SharedRegion()
        handle = region.acquire(1)
        with pytest.raises(ReentrantLock):
            region.acquire(1)
        region.release(handle)

    def test_double_release(self):
        region = SharedRegion()
        handle = region.acquire(1)
        region.release(handle)
        with pytest.raises(NotOwner):
            region.release(handle)

    def test_release_by_other_worker_handle(self):
        region = SharedRegion()
        handle = region.acquire(1)
        forged = LockHandle(region, 2)
        with pytest.raises(NotOwner):
            region.release(forged)
        region.release(handle)

    def test_release_foreign_region_handle(self):
        region_a, region_b = SharedRegion(), SharedRegion()
        handle = region_a.acquire(1)
        with pytest.raises(NotOwner):
            region_b.release(handle)
        region_a.release(handle)


class TestSlots:
    def test_write_then_read_returns_same_point(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        region.write(handle, "kG", tiny.g)
        assert region.read(handle, "kG") == tiny.g
        region.release(handle)

    def test_double_write_rejected(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        region.write(handle, "kPB", tiny.g)
        with pytest.raises(SlotAlreadyWritten):
            region.write(handle, "kPB", tiny.g)
        region.release(handle)

    def test_access_without_lock_rejected(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        region.release(handle)  # handle now dead
        with pytest.raises(LockNotHeld):
            region.write(handle, "kG", tiny.g)
        with pytest.raises(LockNotHeld):
            region.read(handle, "kG")

    def test_unknown_slot_rejected(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        with pytest.raises(ValueError):
            region.write(handle, "kQ", tiny.g)
        region.release(handle)

    def test_reset_empties_both_slots(self, tiny):
        region = SharedRegion()
        handle = region.acquire(1)
        region.write(handle, "kG", tiny.g)
        region.write(handle, "kPB", tiny.g)
        region.reset(handle)
        for slot in SharedRegion.SLOTS:
            with pytest.raises(EmptySlot):
                region.read(handle, slot)
        region.write(handle, "kG", tiny.g)  # writable again
        region.release(handle)


class TestMutualExclusion:
    def test_waiter_proceeds_only_after_unlock(self):
        region = SharedRegion()
        order = []
        h1 = region.acquire(1)
        started = threading.Event()

        def contender():
            started.set()
            h2 = region.acquire(2)
            order.append("w2-acquired")
            region.release(h2)

        t = threading.Thread(target=contender)
        t.start()
        started.wait()
        time.sleep(0.01)
        assert order == []  # still blocked
        order.append("w1-released")
        region.release(h1)
        t.join()
        assert order == ["w1-released", "w2-acquired"]

    def test_counter_is_exact_under_contention(self):
        region = SharedRegion()
        workers, per_worker = 4, 2000
        counter = [0]

        def body(worker_id):
            for i in range(per_worker):
                handle = region.acquire(worker_id)
                value = counter[0]
                if i % 64 == 0:
                    time.sleep(0)  # widen the race window
                counter[0] = value + 1
                region.release(handle)

        threads = [threading.Thread(target=body, args=(w,)) for w in range(1, workers + 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter[0] == workers * per_worker

    def test_fifo_handoff_is_starvation_free(self):
        region = SharedRegion()
        grants = []
        hold = region.acquire(99)
        ready = threading.Barrier(4)

        def waiter(worker_id):
            ready.wait()
            time.sleep(worker_id * 0.005)  # enqueue in worker order
            handle = region.acquire(worker_id)
            grants.append(worker_id)
            region.release(handle)

        threads = [threading.Thread(target=waiter, args=(w,)) for w in (1, 2, 3)]
        for t in threads:
            t.start()
        ready.wait()
        time.sleep(0.05)  # let all three queue up
        region.release(hold)
        for t in threads:
            t.join()
        assert grants == [1, 2, 3]


class TestAbort:
    def test_abort_wakes_lock_and_slot_waiters(self):
        region = SharedRegion()
        hold = region.acquire(99)
        outcomes = {}

        def waiter(name, wait):
            try:
                wait()
                outcomes[name] = "returned"
            except _Cancelled:
                outcomes[name] = "cancelled"

        # daemons, so that waiters abort() failed to wake cannot keep the
        # test process alive
        threads = [
            threading.Thread(target=waiter, daemon=True,
                             args=("acquire", lambda: region.acquire(1))),
            threading.Thread(target=waiter, daemon=True,
                             args=("slot", lambda: region.wait_for_slot("kPB", written=True))),
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5
        while not region._waiters and time.monotonic() < deadline:
            time.sleep(0.001)  # until the lock waiter has queued
        time.sleep(0.05)  # let the slot waiter block as well
        region.abort()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert outcomes == {"acquire": "cancelled", "slot": "cancelled"}
        # and every later wait fails at once
        with pytest.raises(_Cancelled):
            region.acquire(2)
        with pytest.raises(_Cancelled):
            region.wait_for_slot("kG", written=True)
        region.release(hold)


def _trace_of(events):
    return ExecTrace(ExecMode.DUAL, tuple(events), 0.0)


def _ev(seq, worker, kind, slot=None):
    return TraceEvent(seq, seq * 100, worker, kind, slot)


class TestTraceValidation:
    def test_accepts_well_formed(self):
        trace = _trace_of([
            _ev(0, 1, "compute_start"), _ev(1, 1, "compute_end"),
            _ev(2, 1, "lock"), _ev(3, 1, "write_slot", "kG"), _ev(4, 1, "unlock"),
            _ev(5, 2, "lock"), _ev(6, 2, "write_slot", "kPB"), _ev(7, 2, "unlock"),
        ])
        trace.validate()

    def test_rejects_nested_lock(self):
        trace = _trace_of([_ev(0, 1, "lock"), _ev(1, 2, "lock")])
        with pytest.raises(ValueError):
            trace.validate()

    def test_rejects_foreign_unlock(self):
        trace = _trace_of([_ev(0, 1, "lock"), _ev(1, 2, "unlock")])
        with pytest.raises(ValueError):
            trace.validate()

    def test_rejects_write_outside_lock(self):
        trace = _trace_of([_ev(0, 1, "write_slot", "kG")])
        with pytest.raises(ValueError):
            trace.validate()

    def test_rejects_dangling_lock(self):
        trace = _trace_of([_ev(0, 1, "lock")])
        with pytest.raises(ValueError):
            trace.validate()

    def test_render_format(self):
        trace = _trace_of([_ev(0, 1, "lock"), _ev(1, 1, "write_slot", "kG"),
                           _ev(2, 1, "unlock")])
        lines = trace.render().splitlines()
        pattern = re.compile(
            r"^\d+ w\d+ (lock|unlock|write_slot|read_slot|compute_start|compute_end)"
            r"( (kG|kPB))?$"
        )
        for line in lines:
            assert pattern.match(line), line
        assert lines[1].endswith("write_slot kG")


class TestPipeline:
    def test_known_block_single(self, tiny):
        # nonce 2, receiver secret 3: first component must be 2G = (7, 12)
        public = scalar_mul(tiny, 3, tiny.g)
        blocks, trace = run_encrypt_pipeline(
            tiny, [tiny.point(3, 10)], public, [2], ExecMode.SINGLE)
        assert blocks[0].c1 == tiny.point(7, 12)
        assert decrypt_block(tiny, blocks[0], 3) == tiny.point(3, 10)
        trace.validate()

    def test_known_block_dual(self, tiny):
        public = scalar_mul(tiny, 3, tiny.g)
        blocks, trace = run_encrypt_pipeline(
            tiny, [tiny.point(3, 10)], public, [2], ExecMode.DUAL)
        assert blocks[0].c1 == tiny.point(7, 12)
        assert decrypt_block(tiny, blocks[0], 3) == tiny.point(3, 10)
        trace.validate()

    def _random_inputs(self, c, count, seed):
        rng = random.Random(seed)
        points = [scalar_mul(c, rng.randrange(1, c.n), c.g) for _ in range(count)]
        ks = [rng.randrange(1, c.n) for _ in range(count)]
        return points, ks

    def test_modes_agree_tiny(self, tiny):
        points, ks = self._random_inputs(tiny, 200, 11)
        public = scalar_mul(tiny, 5, tiny.g)
        single, _ = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.SINGLE)
        dual, _ = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        assert single == dual

    def test_modes_agree_large_curve(self, c256):
        points, ks = self._random_inputs(c256, 1000, 13)
        public = keygen(c256, random.Random(14)).public
        single, _ = run_encrypt_pipeline(c256, points, public, ks, ExecMode.SINGLE)
        dual, _ = run_encrypt_pipeline(c256, points, public, ks, ExecMode.DUAL)
        assert single == dual
        assert len(single) == 1000

    def test_dual_trace_protocol_per_block(self, tiny):
        points, ks = self._random_inputs(tiny, 5, 17)
        public = scalar_mul(tiny, 3, tiny.g)
        _, trace = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        trace.validate()

        writes = [ev for ev in trace.events if ev.kind == "write_slot"]
        reads = [ev for ev in trace.events if ev.kind == "read_slot"]
        assert len(writes) == 2 * len(points)
        assert len(reads) == 2 * len(points)
        assert all(ev.worker == 1 for ev in reads)
        assert {ev.slot for ev in writes} == {"kG", "kPB"}
        kg_writes = [ev.worker for ev in writes if ev.slot == "kG"]
        kpb_writes = [ev.worker for ev in writes if ev.slot == "kPB"]
        assert set(kg_writes) == {1} and len(kg_writes) == len(points)
        assert set(kpb_writes) == {2} and len(kpb_writes) == len(points)

    def test_single_trace_has_no_lock_traffic(self, tiny):
        points, ks = self._random_inputs(tiny, 3, 19)
        public = scalar_mul(tiny, 3, tiny.g)
        _, trace = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.SINGLE)
        kinds = {ev.kind for ev in trace.events}
        assert kinds == {"compute_start", "compute_end"}
        assert all(ev.worker == 1 for ev in trace.events)

    def test_wall_time_recorded(self, tiny):
        points, ks = self._random_inputs(tiny, 3, 23)
        public = scalar_mul(tiny, 3, tiny.g)
        _, trace = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        assert trace.wall_time_s > 0

    def test_empty_input(self, tiny):
        blocks, trace = run_encrypt_pipeline(tiny, [], tiny.g, [], ExecMode.DUAL)
        assert blocks == []
        assert trace.events == ()

    def test_liveness_thousand_blocks(self, tiny):
        points, ks = self._random_inputs(tiny, 1000, 29)
        public = scalar_mul(tiny, 3, tiny.g)
        start = time.perf_counter()
        blocks, trace = run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        elapsed = time.perf_counter() - start
        assert len(blocks) == 1000
        assert elapsed < 60
        trace.validate()

    def test_nonce_shortage_rejected(self, tiny):
        with pytest.raises(ValueError):
            run_encrypt_pipeline(tiny, [tiny.g, tiny.g], tiny.g, [2], ExecMode.DUAL)

    def test_nonce_out_of_range_rejected(self, tiny):
        with pytest.raises(ValueError):
            run_encrypt_pipeline(tiny, [tiny.g], tiny.g, [0], ExecMode.SINGLE)
        with pytest.raises(ValueError):
            run_encrypt_pipeline(tiny, [tiny.g], tiny.g, [tiny.n], ExecMode.SINGLE)

    def test_off_curve_inputs_rejected(self, tiny):
        bogus = Point(3, 11)
        with pytest.raises(OffCurveInput):
            run_encrypt_pipeline(tiny, [bogus], tiny.g, [2], ExecMode.DUAL)
        with pytest.raises(OffCurveInput):
            run_encrypt_pipeline(tiny, [tiny.g], bogus, [2], ExecMode.DUAL)

    def test_identity_message_point_allowed(self, tiny):
        public = scalar_mul(tiny, 3, tiny.g)
        blocks, _ = run_encrypt_pipeline(tiny, [IDENTITY], public, [2], ExecMode.DUAL)
        assert decrypt_block(tiny, blocks[0], 3) == IDENTITY

    @staticmethod
    def fail_stage(monkeypatch, stage: int, fault):
        """Make stage `stage` of encrypt_stages (0 k*G, 1 k*P_B, 2 the add)
        raise `fault` on its third call, on either backend."""
        real = pipeline_mod.encrypt_stages

        def stages(c, public, uses):
            funcs = list(real(c, public, uses))
            inner, calls = funcs[stage], {"n": 0}

            def flaky(*args):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise fault("injected fault")
                return inner(*args)

            funcs[stage] = flaky
            return tuple(funcs)

        monkeypatch.setattr(pipeline_mod, "encrypt_stages", stages)

    def test_worker_failure_aborts_with_id(self, tiny, monkeypatch):
        # worker 2 computes k*public; fail it on the third block
        self.fail_stage(monkeypatch, 1, RuntimeError)
        points, ks = TestPipeline._random_inputs(self, tiny, 10, 31)
        public = scalar_mul(tiny, 3, tiny.g)
        with pytest.raises(WorkerFailure) as excinfo:
            run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        assert excinfo.value.worker == 2
        assert "injected fault" in str(excinfo.value)

    @pytest.mark.parametrize("mode, threads", [(ExecMode.SINGLE, []),
                                               (ExecMode.DUAL, ["pipeline-w2"])],
                             ids=["single", "dual"])
    def test_worker_one_is_the_caller(self, tiny, monkeypatch, mode, threads):
        made = []

        class CountingThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self.name)

        monkeypatch.setattr(pipeline_mod.threading, "Thread", CountingThread)
        points, ks = self._random_inputs(tiny, 20, 37)
        public = scalar_mul(tiny, 3, tiny.g)
        run_encrypt_pipeline(tiny, points, public, ks, mode)
        assert made == threads

    @pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
    def test_worker_one_failure_joins_worker_two(self, tiny, monkeypatch, fault):
        # worker 1 computes k*G; fail it on the third block
        self.fail_stage(monkeypatch, 0, fault)
        points, ks = self._random_inputs(tiny, 10, 41)
        public = scalar_mul(tiny, 3, tiny.g)
        expected = WorkerFailure if fault is RuntimeError else KeyboardInterrupt
        with pytest.raises(expected) as excinfo:
            run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        if fault is RuntimeError:
            assert excinfo.value.worker == 1
        assert "injected fault" in str(excinfo.value)
        assert "pipeline-w2" not in [t.name for t in threading.enumerate()]


@pytest.mark.skipif(curve_mod.active_backend() != "native", reason="no native kernel")
class TestTablePath:
    """Encryption on the kernel: k*G from G's table, k*P_B from a per-call
    table in calls of FIXED_BASE_MIN_USES or more blocks and from mul in
    shorter ones, and one affine call (one inversion) per block."""

    COUNT = 20

    def inputs(self, c):
        assert self.COUNT >= curve_mod.FIXED_BASE_MIN_USES
        points, ks = TestPipeline._random_inputs(self, c, self.COUNT, 43)
        return points, scalar_mul(c, 3, c.g), ks

    @pytest.mark.parametrize("mode", list(ExecMode), ids=lambda m: m.value)
    def test_one_inversion_per_block(self, c256, monkeypatch, mode):
        # a short call multiplies P_B by mul instead of a table, and still
        # finishes each block in one affine call
        points, public, ks = self.inputs(c256)
        calls = {}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((_native.Kernel, "base_mul"), (_native.Kernel, "mul"),
                            (_native.Kernel, "affine"), (curve_mod, "invmod")):
            counting(owner, name)
        n = self.COUNT
        for count, want in ((4, dict(base_mul=4, mul=4, affine=4, invmod=0)),
                            (n, dict(base_mul=2 * n, mul=0, affine=n, invmod=0))):
            calls.update(base_mul=0, mul=0, affine=0, invmod=0)
            blocks, _ = run_encrypt_pipeline(c256, points[:count], public, ks[:count], mode)
            assert len(blocks) == count
            assert calls == want, count

    def test_affine_failure_on_worker_one(self, c256, monkeypatch):
        points, public, ks = self.inputs(c256)
        real = _native.Kernel.affine
        calls = {"n": 0}

        def flaky(self, ctx, jacs, addends=None):
            # the add stage runs on worker 1; fail it on the third block
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected fault")
            return real(self, ctx, jacs, addends)

        monkeypatch.setattr(_native.Kernel, "affine", flaky)
        with pytest.raises(WorkerFailure) as excinfo:
            run_encrypt_pipeline(c256, points, public, ks, ExecMode.DUAL)
        assert excinfo.value.worker == 1
        assert "injected fault" in str(excinfo.value)
        assert "pipeline-w2" not in [t.name for t in threading.enumerate()]
