"""Front-door suite: micro-batcher contracts, wire protocol, SLOs.

Three layers, three promises:

* the sans-IO :class:`MicroBatcher` fires under exactly the dual
  trigger (size, deterministic logical wait) plus flush, treats every
  mutation as a FIFO barrier, resolves every reply exactly once (on
  success *and* error paths), and sheds with a typed retryable
  :class:`~repro.errors.OverloadedError` when the queue or the
  breaker says no;
* any interleaving of queries and mutations through the batcher —
  under any trigger pattern (size-fired, clock-fired, flush-on-close)
  — answers bit-for-bit like a sequential reference applying the same
  submission order (the hypothesis differential);
* the TCP front door serves those same answers over the wire: a
  pipelined client equals the direct engine exactly, mutations route
  through, protocol violations come back as typed error responses.

The parameterized ``served_engine`` fixture (conftest) closes the
loop: direct, sharded, pooled, and server stacks all answer the shared
workload bit-identically to the union reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MaintainedHistogram, MinSkewPartitioner
from repro.data import charminar
from repro.errors import OverloadedError, ReproError, ValidationError
from repro.estimators import BucketEstimator, MaintainedEstimator
from repro.geometry import Rect, RectSet
from repro.resilience import StepClock
from repro.serving import (
    BatchServingEngine,
    FrontDoorThread,
    MicroBatcher,
    PendingReply,
)
from repro.workload import live_workload, range_queries

DATA = charminar(600, seed=53)


class _Recorder:
    """Dispatch stub: records every batch; answers row sums."""

    def __init__(self, fail=None):
        self.batches = []
        self.fail = fail

    def __call__(self, coords):
        self.batches.append(coords.copy())
        if self.fail is not None:
            raise self.fail
        return coords.sum(axis=1)

    @property
    def sizes(self):
        return [len(b) for b in self.batches]


def _batcher(recorder, **kwargs):
    kwargs.setdefault("clock", StepClock())
    return MicroBatcher(recorder, **kwargs)


class TestMicroBatcherTriggers:
    def test_batch_of_one_fires_on_flush(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=8, max_wait_steps=4)
        reply = batcher.submit(0.0, 0.0, 1.0, 2.0)
        assert not reply.done
        assert recorder.sizes == []
        batcher.flush()
        assert reply.done
        assert reply.result() == 3.0
        assert recorder.sizes == [1]

    def test_exactly_max_size_fires_inline(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=4, max_wait_steps=0)
        replies = [
            batcher.submit(float(i), 0.0, float(i) + 1.0, 1.0)
            for i in range(4)
        ]
        # no tick, no flush: the size trigger alone fired the batch
        assert recorder.sizes == [4]
        assert [r.result() for r in replies] == [
            2.0 * i + 2.0 for i in range(4)
        ]
        assert batcher.pending == 0

    def test_overflow_splits_into_max_sized_batches(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=4, max_wait_steps=0)
        replies = [
            batcher.submit(float(i), 0.0, float(i) + 1.0, 1.0)
            for i in range(9)
        ]
        assert recorder.sizes == [4, 4]
        assert batcher.pending == 1
        batcher.flush()
        assert recorder.sizes == [4, 4, 1]
        assert all(r.done for r in replies)
        # FIFO: batch rows are the submission order, never reordered
        submitted = np.array(
            [[float(i), 0.0, float(i) + 1.0, 1.0] for i in range(9)]
        )
        np.testing.assert_array_equal(
            np.vstack(recorder.batches), submitted
        )

    def test_wait_trigger_fires_exactly_at_max_wait_steps(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=64, max_wait_steps=3)
        reply = batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.tick()
        batcher.tick()
        assert not reply.done  # 2 steps: still within the bound
        batcher.tick()
        assert reply.done  # exactly 3: the partial batch fired
        assert recorder.sizes == [1]

    def test_wait_trigger_disabled_by_zero(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=64, max_wait_steps=0)
        reply = batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.tick(1_000)
        assert not reply.done
        batcher.close()  # flush-on-close drains it
        assert reply.done

    def test_mutation_is_a_fifo_barrier(self):
        events = []

        def dispatch(coords):
            events.append(("batch", len(coords)))
            return coords.sum(axis=1)

        def apply_mutation(kind, rect):
            events.append(("mutation", kind))
            return {"applied": True}

        batcher = MicroBatcher(
            dispatch, apply_mutation, max_batch=64,
            max_wait_steps=0, clock=StepClock(),
        )
        q1 = batcher.submit(0.0, 0.0, 1.0, 1.0)
        q2 = batcher.submit(0.0, 0.0, 2.0, 2.0)
        mut = batcher.submit_mutation(
            "insert", Rect(0.0, 0.0, 1.0, 1.0)
        )
        # the barrier forced the pre-mutation queries out first, then
        # applied the mutation — regardless of size/wait triggers
        assert events == [("batch", 2), ("mutation", "insert")]
        assert q1.done and q2.done and mut.done
        q3 = batcher.submit(0.0, 0.0, 3.0, 3.0)
        assert not q3.done  # post-barrier query waits for its trigger
        batcher.flush()
        assert events == [
            ("batch", 2), ("mutation", "insert"), ("batch", 1),
        ]
        assert q3.result() == 6.0


class TestMicroBatcherReplies:
    def test_dispatch_failure_errors_every_reply_exactly_once(self):
        boom = RuntimeError("kernel exploded")
        recorder = _Recorder(fail=boom)
        batcher = _batcher(recorder, max_batch=3, max_wait_steps=0)
        replies = [
            batcher.submit(0.0, 0.0, 1.0, 1.0) for _ in range(3)
        ]
        assert batcher.dispatch_failures == 1
        for reply in replies:
            assert reply.error() is boom
            with pytest.raises(RuntimeError):
                reply.result()
            # exactly once: a second resolution is a programming error
            with pytest.raises(ValidationError):
                reply.set_result(1.0)
            with pytest.raises(ValidationError):
                reply.set_error(RuntimeError("again"))

    def test_shape_mismatch_is_a_dispatch_failure(self):
        batcher = MicroBatcher(
            lambda coords: np.zeros(len(coords) + 1),
            max_batch=2, max_wait_steps=0, clock=StepClock(),
        )
        replies = [
            batcher.submit(0.0, 0.0, 1.0, 1.0) for _ in range(2)
        ]
        assert batcher.dispatch_failures == 1
        for reply in replies:
            assert isinstance(reply.error(), ValidationError)

    def test_unresolved_reply_raises_on_result(self):
        reply = PendingReply()
        assert not reply.done
        with pytest.raises(ValidationError):
            reply.result()

    def test_done_callback_runs_immediately_when_resolved(self):
        reply = PendingReply()
        seen = []
        reply.add_done_callback(lambda r: seen.append(("a", r.done)))
        assert seen == []
        reply.set_result(7.0)
        assert seen == [("a", True)]
        reply.add_done_callback(lambda r: seen.append(("b", r.done)))
        assert seen == [("a", True), ("b", True)]

    def test_mutation_failure_sets_error_and_counts(self):
        def apply_mutation(kind, rect):
            raise RuntimeError("shard down")

        batcher = MicroBatcher(
            _Recorder(), apply_mutation, max_batch=8,
            max_wait_steps=0, clock=StepClock(),
        )
        reply = batcher.submit_mutation(
            "insert", Rect(0.0, 0.0, 1.0, 1.0)
        )
        assert isinstance(reply.error(), RuntimeError)
        assert batcher.dispatch_failures == 1

    def test_unknown_mutation_kind_rejected_before_queueing(self):
        batcher = _batcher(_Recorder())
        with pytest.raises(ValidationError):
            batcher.submit_mutation("upsert", Rect(0, 0, 1, 1))
        assert batcher.pending == 0


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_retryable_error(self):
        recorder = _Recorder()
        batcher = _batcher(
            recorder, max_batch=100, max_wait_steps=0, max_pending=2
        )
        batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.submit(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(OverloadedError) as exc_info:
            batcher.submit(0.0, 0.0, 1.0, 1.0)
        assert exc_info.value.retryable
        assert batcher.shed == 1
        assert batcher.stats()["shed"] == 1.0
        # draining reopens admission
        batcher.flush()
        assert batcher.submit(0.0, 0.0, 1.0, 1.0) is not None

    def test_breaker_opens_after_failures_and_recovers(self):
        boom = RuntimeError("backend dead")
        recorder = _Recorder(fail=boom)
        batcher = _batcher(
            recorder, max_batch=1, max_wait_steps=0,
            failure_threshold=2, reset_after_steps=3,
        )
        # max_batch=1: every submit dispatches (and fails) inline
        assert batcher.submit(0.0, 0.0, 1.0, 1.0).error() is boom
        assert batcher.submit(0.0, 0.0, 1.0, 1.0).error() is boom
        with pytest.raises(OverloadedError):
            batcher.submit(0.0, 0.0, 1.0, 1.0)
        assert batcher.shed == 1
        # past the cooldown the breaker admits a trial; the healthy
        # backend closes the loop
        recorder.fail = None
        batcher.tick(4)
        reply = batcher.submit(0.0, 0.0, 1.0, 2.0)
        assert reply.result() == 3.0


def _live_engine():
    """A maintained histogram behind a serving engine + its handle."""
    hist = MaintainedHistogram(
        MinSkewPartitioner(8, n_regions=100), DATA,
        drift_threshold=0.9,
    )
    return hist, BatchServingEngine(MaintainedEstimator(hist))


class TestInterleavingDifferential:
    """The tentpole property: any interleaving == sequential reference.

    One batcher over a live engine, one plain engine driven
    sequentially in the identical submission order.  Hypothesis draws
    the workload seed *and* the trigger landscape — tiny max_batch
    (size-fired), tick cadence (clock-fired), and the final ``close``
    (flush trigger) — so every trigger path carries real traffic.
    """

    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(1, 40),
        max_batch=st.integers(1, 8),
        wait_steps=st.integers(0, 3),
        tick_every=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_equals_sequential_reference(
        self, seed, n_ops, max_batch, wait_steps, tick_every
    ):
        hist_a, engine_a = _live_engine()
        hist_b, engine_b = _live_engine()

        def apply_mutation(kind, rect):
            return (
                hist_a.insert(rect) if kind == "insert"
                else hist_a.delete(rect)
            )

        batcher = MicroBatcher(
            lambda coords: engine_a.estimate_batch(
                RectSet(coords, copy=False, validate=False)
            ),
            apply_mutation,
            max_batch=max_batch,
            max_wait_steps=wait_steps,
            clock=StepClock(),
        )
        replies, expected = [], []
        for i, op in enumerate(
            live_workload(DATA, 0.1, n_ops, seed=seed)
        ):
            if op.kind == "query":
                rect = op.rect
                replies.append(batcher.submit(
                    rect.x1, rect.y1, rect.x2, rect.y2
                ))
                # the barrier contract: a query answers at the state
                # of its submission point, so the reference serves it
                # before any later mutation applies
                expected.append(engine_b.estimate(rect))
            elif op.kind == "insert":
                batcher.submit_mutation("insert", op.rect)
                hist_b.insert(op.rect)
            else:
                batcher.submit_mutation("delete", op.rect)
                hist_b.delete(op.rect)
            if tick_every and i % tick_every == 0:
                batcher.tick()
        batcher.close()
        got = [reply.result() for reply in replies]
        assert got == expected  # bit-for-bit float equality


class TestMidBatchMutationEpoch:
    """Satellite regression: a mutation landing *mid-serve*.

    The engine pins an epoch-read point before consulting the cache;
    if a mutation lands between the cache lookup and the estimate, the
    post-mutation answer must stay out of the cache, or a later lookup
    would replay it under an epoch it was not computed at.  The batch
    path never touches the cache, so only the scalar path has this
    window.
    """

    def test_scalar_mid_serve_answer_is_not_cached(self):
        hist, engine = _live_engine()
        est = engine.inner
        query = range_queries(DATA, 0.1, 1, seed=5)[0]
        cx, cy = DATA.mbr().center
        rect = Rect.from_center(cx, cy, 1.0, 1.0)
        inner = est.estimate
        fired = {}

        def estimate(q):
            if "done" not in fired:
                fired["done"] = True
                hist.insert(rect)
            return inner(q)

        est.estimate = estimate
        first = engine.estimate(query)
        # the post-mutation answer stayed out of the cache: the pinned
        # epoch point moved between lookup and estimate
        assert len(engine.cache) == 0
        second = engine.estimate(query)
        assert second == first
        fresh = BatchServingEngine(
            BucketEstimator(list(hist.buckets), name="fresh")
        ).estimate(query)
        assert first == fresh


class TestFrontDoorWire:
    """End-to-end over TCP: the wire changes nothing."""

    def _door(self, **kwargs):
        hist, engine = _live_engine()

        def mutate(kind, rect):
            return (
                hist.insert(rect) if kind == "insert"
                else hist.delete(rect)
            )

        front = FrontDoorThread(
            engine, mutate=mutate, **kwargs
        ).start()
        return hist, front

    def test_pipelined_client_equals_direct_engine(self):
        hist, front = self._door(max_batch=8, max_wait_steps=2)
        try:
            queries = range_queries(DATA, 0.1, 40, seed=7)
            _, reference_engine = _live_engine()
            expected = reference_engine.estimate_batch(queries)
            responses = front.estimate_many(
                queries.coords, concurrency=4
            )
            assert all(r.get("ok", False) for r in responses)
            values = np.array(
                [r["value"] for r in responses], dtype=np.float64
            )
            np.testing.assert_array_equal(values, expected)
            stats = front.stats()
            assert stats["submitted"] == 40.0
            assert stats["batches"] >= 1.0
        finally:
            front.stop()

    def test_wire_mutations_change_answers_identically(self):
        hist, front = self._door(max_batch=4, max_wait_steps=1)
        try:
            hist_ref, engine_ref = _live_engine()
            query = range_queries(DATA, 0.15, 1, seed=9)[0]
            before = front.estimate(
                query.x1, query.y1, query.x2, query.y2
            )
            assert before == engine_ref.estimate(query)
            # inserting the query rectangle itself guarantees overlap,
            # so the answer must move
            rect = query
            for _ in range(5):
                front.mutate(
                    "insert", (rect.x1, rect.y1, rect.x2, rect.y2)
                )
                hist_ref.insert(rect)
            after = front.estimate(
                query.x1, query.y1, query.x2, query.y2
            )
            assert after == engine_ref.estimate(query)
            assert after != before
        finally:
            front.stop()

    def test_invalid_rect_gets_typed_error_response(self):
        _, front = self._door()
        try:
            response = front.call(
                "estimate", rect=(5.0, 5.0, 1.0, 1.0)
            )
            assert response["ok"] is False
            assert "error" in response and "message" in response
            # the connection survives the bad request
            good = front.call("estimate", rect=(0.0, 0.0, 1.0, 1.0))
            assert good["ok"] is True
        finally:
            front.stop()

    def test_unknown_op_gets_typed_error_response(self):
        _, front = self._door()
        try:
            response = front.call("bogus")
            assert response["ok"] is False
            assert front.call("ping")["ok"] is True
        finally:
            front.stop()

    def test_read_only_door_rejects_mutations(self):
        hist, _ = _live_engine()
        front = FrontDoorThread(
            BatchServingEngine(
                BucketEstimator(list(hist.buckets), name="ro"),
            )
        ).start()
        try:
            with pytest.raises(ReproError):
                front.mutate("insert", (0.0, 0.0, 1.0, 1.0))
        finally:
            front.stop()


class TestAllEngineKindsAgree:
    """The consolidation payoff: one suite, four serving stacks."""

    def test_batch_answers_equal_union_reference(
        self, served_engine, serving_queries
    ):
        np.testing.assert_array_equal(
            served_engine.estimate_batch(serving_queries),
            served_engine.reference(serving_queries),
        )

    def test_answers_track_mutations(
        self, served_engine, serving_dataset, serving_queries
    ):
        before = served_engine.estimate_batch(serving_queries)
        for op in live_workload(serving_dataset, 0.1, 12, seed=91):
            if op.kind == "insert":
                served_engine.insert(op.rect)
            elif op.kind == "delete":
                served_engine.delete(op.rect)
        after = served_engine.estimate_batch(serving_queries)
        np.testing.assert_array_equal(
            after, served_engine.reference(serving_queries)
        )
        assert not np.array_equal(after, before)


class TestServerBenchSmoke:
    """The bench's ``engine="server"`` cell end-to-end, small scale."""

    def test_server_cell_matches_and_validates(self):
        from repro.obs.bench import SERVER_CONFIG, run_bench
        from repro.obs.schema import validate_bench

        config = SERVER_CONFIG.replace(
            datasets=(("charminar", 800),),
            n_buckets=12,
            n_regions=1_000,
            n_queries=600,
            concurrency=2,
            server_max_batch=16,
            server_window=16,
        )
        doc = run_bench(config)
        validate_bench(doc)
        cell = doc["datasets"][0]["techniques"][0]
        server = cell["server"]
        assert server["server_matches"] is True
        assert server["requests"] == 600
        assert server["batches"] >= 1
        assert server["p99_ms"] >= server["p50_ms"] >= 0.0
        assert server["single_qps"] > 0.0 and server["batched_qps"] > 0.0
