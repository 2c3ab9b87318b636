"""Tests for incremental summary maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MaintainedHistogram,
    MinSkewPartitioner,
    buckets_from_members,
)
from repro.core.bucket import owner_of_center
from repro.counting import brute_force_counts
from repro.data import uniform_rects
from repro.estimators import BucketEstimator
from repro.geometry import Rect, RectSet
from repro.workload import range_queries


@pytest.fixture()
def hist(small_nj_road):
    return MaintainedHistogram(
        MinSkewPartitioner(25, n_regions=400), small_nj_road
    )


class TestBasics:
    def test_validation(self, small_nj_road):
        with pytest.raises(ValueError):
            MaintainedHistogram(
                MinSkewPartitioner(5, n_regions=100), small_nj_road,
                drift_threshold=0.0,
            )

    def test_initial_state(self, hist, small_nj_road):
        assert len(hist) == len(small_nj_road)
        assert hist.modifications_since_refresh == 0
        assert not hist.needs_refresh
        assert sum(b.count for b in hist.buckets) == len(small_nj_road)

    def test_insert_updates_count(self, hist):
        before = sum(b.count for b in hist.buckets)
        mbr = hist.current_data().mbr()
        cx, cy = mbr.center
        hist.insert(Rect.from_center(cx, cy, 5, 5))
        assert sum(b.count for b in hist.buckets) == before + 1
        assert len(hist) == before + 1

    def test_insert_outside_is_drift(self, hist):
        before = sum(b.count for b in hist.buckets)
        hist.insert(Rect(1e6, 1e6, 1e6 + 1, 1e6 + 1))
        assert hist.uncovered_inserts == 1
        # bucket stats unchanged, raw data grew
        assert sum(b.count for b in hist.buckets) == before
        assert len(hist) == before + 1

    def test_delete_existing(self, hist, small_nj_road):
        victim = small_nj_road[0]
        assert hist.delete(victim)
        assert len(hist) == len(small_nj_road) - 1
        assert sum(b.count for b in hist.buckets) == \
            len(small_nj_road) - 1

    def test_delete_missing_is_noop(self, hist, small_nj_road):
        assert not hist.delete(Rect(1e6, 1e6, 1e6 + 1, 1e6 + 1))
        assert len(hist) == len(small_nj_road)
        assert hist.modifications_since_refresh == 0

    def test_insert_then_delete_restores_counts(self, hist):
        baseline = [b.count for b in hist.buckets]
        mbr = hist.current_data().mbr()
        cx, cy = mbr.center
        r = Rect.from_center(cx, cy, 7, 3)
        hist.insert(r)
        assert hist.delete(r)
        assert [b.count for b in hist.buckets] == baseline


class TestDriftAndRefresh:
    def test_needs_refresh_after_many_changes(self, small_nj_road):
        hist = MaintainedHistogram(
            MinSkewPartitioner(10, n_regions=100), small_nj_road,
            drift_threshold=0.01,
        )
        mbr = small_nj_road.mbr()
        cx, cy = mbr.center
        for _ in range(int(0.02 * len(small_nj_road))):
            hist.insert(Rect.from_center(cx, cy, 2, 2))
        assert hist.needs_refresh

    def test_refresh_resets(self, small_nj_road):
        hist = MaintainedHistogram(
            MinSkewPartitioner(10, n_regions=100), small_nj_road,
            drift_threshold=0.01,
        )
        for i in range(200):
            hist.insert(Rect(1e6 + i, 1e6, 1e6 + i + 1, 1e6 + 1))
        assert hist.needs_refresh
        hist.refresh()
        assert not hist.needs_refresh
        assert hist.uncovered_inserts == 0
        # the rebuilt layout now covers the migrated data
        assert sum(b.count for b in hist.buckets) == len(hist)

    def test_refresh_to_empty(self):
        data = RectSet(np.array([[0.0, 0.0, 1.0, 1.0]]))
        hist = MaintainedHistogram(
            MinSkewPartitioner(2, n_regions=4), data
        )
        assert hist.delete(data[0])
        hist.refresh()
        assert hist.buckets == []
        assert hist.estimate(Rect(0, 0, 10, 10)) == 0.0

    def test_refresh_discards_running_average_drift(self):
        """Regression: the incremental running averages clamp at 0.0
        on the way down (:meth:`Bucket.with_deleted`), so a long
        insert/delete stream drifts them away from the exact
        ``from_members`` values.  ``refresh`` must not inherit that
        drift: after it, every bucket is bit-identical to one built
        fresh over the retained rows."""
        data = uniform_rects(600, seed=41)
        hist = MaintainedHistogram(
            MinSkewPartitioner(12, n_regions=144), data,
            drift_threshold=1.0,  # effectively never auto-trips
        )
        gen = np.random.default_rng(42)
        live = [data[i] for i in range(len(data))]
        mbr = data.mbr()
        for step in range(2_000):
            if live and gen.uniform() < 0.5:
                victim = live.pop(int(gen.integers(len(live))))
                assert hist.delete(victim)
            else:
                cx = gen.uniform(mbr.x1, mbr.x2)
                cy = gen.uniform(mbr.y1, mbr.y2)
                r = Rect.from_center(
                    cx, cy, gen.uniform(0, 9), gen.uniform(0, 9)
                )
                hist.insert(r)
                live.append(r)

        # the incremental summary really has drifted off the exact
        # values by now (this is what made the bug observable)
        retained = hist.current_data()
        boxes_now = [b.bbox for b in hist.buckets]
        assert hist.buckets != buckets_from_members(
            retained, boxes_now
        )

        hist.refresh()

        layout = [
            b.bbox
            for b in MinSkewPartitioner(
                12, n_regions=144
            ).partition(hist.current_data())
        ]
        fresh = buckets_from_members(hist.current_data(), layout)
        assert hist.buckets == fresh  # bit-for-bit


class TestEpoch:
    """The staleness contract: every accepted mutation moves the
    epoch, and nothing else does."""

    def test_starts_at_zero(self, hist):
        assert hist.epoch == 0

    def test_insert_bumps(self, hist):
        mbr = hist.current_data().mbr()
        cx, cy = mbr.center
        hist.insert(Rect.from_center(cx, cy, 5, 5))
        assert hist.epoch == 1

    def test_uncovered_insert_still_bumps(self, hist):
        # the raw data changed even though no bucket did; consumers
        # deriving from current_data() must see the move
        hist.insert(Rect(1e6, 1e6, 1e6 + 1, 1e6 + 1))
        assert hist.epoch == 1

    def test_delete_hit_bumps_miss_does_not(
        self, hist, small_nj_road
    ):
        assert not hist.delete(Rect(1e6, 1e6, 1e6 + 1, 1e6 + 1))
        assert hist.epoch == 0
        assert hist.delete(small_nj_road[0])
        assert hist.epoch == 1

    def test_refresh_bumps(self, hist):
        hist.refresh()
        assert hist.epoch == 1

    def test_queries_never_bump(self, hist):
        hist.estimate(Rect(0, 0, 100, 100))
        hist.current_data()
        assert hist.epoch == 0

    def test_epoch_is_monotone_over_mixed_sequence(
        self, hist, small_nj_road
    ):
        mbr = hist.current_data().mbr()
        cx, cy = mbr.center
        seen = [hist.epoch]
        hist.insert(Rect.from_center(cx, cy, 3, 3))
        seen.append(hist.epoch)
        hist.delete(small_nj_road[1])
        seen.append(hist.epoch)
        hist.refresh()
        seen.append(hist.epoch)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)


class TestDeleteLastMember:
    """Regression: removing a bucket's only rectangle must leave an
    empty bucket (count 0, zero averages), not raise
    ZeroDivisionError from the running-average update."""

    def test_delete_only_member_of_bucket(self):
        # two distant unit squares -> Min-Skew puts them in separate
        # buckets, each with exactly one member
        data = RectSet(np.array([
            [0.0, 0.0, 1.0, 1.0],
            [100.0, 100.0, 101.0, 101.0],
        ]))
        hist = MaintainedHistogram(
            MinSkewPartitioner(2, n_regions=16), data
        )
        assert hist.delete(data[0])
        counts = sorted(b.count for b in hist.buckets)
        assert counts[0] == 0
        empty = next(b for b in hist.buckets if b.count == 0)
        assert empty.avg_width == 0.0
        assert empty.avg_height == 0.0
        assert empty.avg_density == 0.0
        # the emptied bucket contributes nothing, the other still does
        assert hist.estimate(Rect(0, 0, 2, 2)) == 0.0
        assert hist.estimate(Rect(99, 99, 102, 102)) > 0.0

    def test_bucket_with_deleted_guards_empty(self):
        from repro.core.bucket import Bucket

        b = Bucket(Rect(0, 0, 10, 10), 1, avg_width=2.0,
                   avg_height=3.0, avg_density=0.04)
        emptied = b.with_deleted(Rect(4, 4, 6, 6))
        assert emptied.count == 0
        assert emptied.avg_width == 0.0
        assert emptied.avg_height == 0.0
        # deleting from an already-empty bucket is a no-op, not an
        # underflow
        assert emptied.with_deleted(Rect(4, 4, 6, 6)) is emptied

    def test_delete_all_members_one_by_one(self):
        rows = np.array([
            [float(i), 0.0, float(i) + 1.0, 1.0] for i in range(8)
        ])
        data = RectSet(rows)
        hist = MaintainedHistogram(
            MinSkewPartitioner(3, n_regions=16), data
        )
        for i in range(8):
            assert hist.delete(data[i])
        assert len(hist) == 0
        assert all(b.count == 0 for b in hist.buckets)
        assert hist.estimate(Rect(0, 0, 10, 10)) == 0.0


class TestAccuracyUnderChange:
    def test_estimates_track_inserts(self):
        """After inserting a new cluster, the maintained histogram is
        closer to the truth than the stale (unmaintained) one, and its
        global count is exact.  The improvement is bounded by layout
        staleness — counts move, boxes don't — which is why refresh()
        exists."""
        data = uniform_rects(4_000, seed=90)
        partitioner = MinSkewPartitioner(30, n_regions=400)
        hist = MaintainedHistogram(partitioner, data)
        stale = BucketEstimator.build(partitioner, data)

        # pour 2 000 new rectangles into one area
        gen = np.random.default_rng(91)
        for _ in range(2_000):
            cx, cy = gen.uniform(2_000, 3_000, 2)
            hist.insert(Rect.from_center(cx, cy, 100, 100))

        # global count tracks exactly
        full = hist.current_data().mbr()
        assert hist.estimate(full) == pytest.approx(6_000, rel=0.01)
        assert stale.estimate(full) == pytest.approx(4_000, rel=0.01)

        # locally, maintained beats stale (but not a fresh rebuild)
        query = Rect(1_800, 1_800, 3_200, 3_200)
        truth = float(
            brute_force_counts(
                hist.current_data(),
                RectSet(np.array([query.as_tuple()])),
            )[0]
        )
        maintained_err = abs(hist.estimate(query) - truth) / truth
        stale_err = abs(stale.estimate(query) - truth) / truth
        assert maintained_err < stale_err
        hist.refresh()
        refreshed_err = abs(hist.estimate(query) - truth) / truth
        assert refreshed_err < maintained_err

    def test_refresh_beats_maintained(self):
        """A full rebuild after heavy churn is at least as accurate as
        the incrementally maintained summary."""
        data = uniform_rects(4_000, seed=92)
        partitioner = MinSkewPartitioner(30, n_regions=400)
        hist = MaintainedHistogram(partitioner, data)
        gen = np.random.default_rng(93)
        for _ in range(3_000):
            cx, cy = gen.uniform(7_000, 9_500, 2)
            hist.insert(Rect.from_center(cx, cy, 50, 50))

        live = hist.current_data()
        queries = range_queries(live, 0.08, 300, seed=94)
        truth = brute_force_counts(live, queries)

        def total_err(buckets_estimate):
            est = np.array([buckets_estimate(q) for q in queries])
            return np.abs(truth - est).sum() / truth.sum()

        maintained = total_err(hist.estimate)
        hist.refresh()
        rebuilt = total_err(hist.estimate)
        assert rebuilt <= maintained * 1.05


# ----------------------------------------------------------------------
# row store vs a plain-list reference model
# ----------------------------------------------------------------------
class _ListModel:
    """The row store's reference semantics: a Python list of one-row
    arrays, deletes by a front-to-back ``np.array_equal`` scan, bucket
    statistics updated through the same center rule."""

    def __init__(self, hist):
        self.partitioner = hist._partitioner
        self.rows = [row.copy() for row in hist.current_data().coords]
        self.buckets = list(hist.buckets)
        self.epoch = hist.epoch

    def _owner(self, rect):
        cx, cy = rect.center
        return owner_of_center(cx, cy, [b.bbox for b in self.buckets])

    def coords(self):
        if not self.rows:
            return np.empty((0, 4), dtype=np.float64)
        return np.vstack(self.rows)

    def insert(self, rect):
        self.rows.append(np.asarray(rect.as_tuple(), dtype=np.float64))
        self.epoch += 1
        idx = self._owner(rect)
        if idx is not None:
            self.buckets[idx] = self.buckets[idx].with_inserted(rect)

    def delete(self, rect):
        target = np.asarray(rect.as_tuple(), dtype=np.float64)
        for i, row in enumerate(self.rows):
            if np.array_equal(row, target):
                del self.rows[i]
                break
        else:
            return False
        self.epoch += 1
        idx = self._owner(rect)
        if idx is not None:
            self.buckets[idx] = self.buckets[idx].with_deleted(rect)
        return True

    def refresh(self):
        data = RectSet(self.coords(), copy=False, validate=False)
        if len(data) == 0:
            self.buckets = []
        else:
            layout = [b.bbox for b in self.partitioner.partition(data)]
            self.buckets = buckets_from_members(data, layout)
        self.epoch += 1


# Few distinct values, so duplicate rows and -0.0/0.0 pairs are common.
_LOWS = st.sampled_from([-0.0, 0.0, 1.0, 2.5])
_SIDES = st.sampled_from([0.0, 1.0, 3.0])
_RECTS = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h), _LOWS, _LOWS, _SIDES, _SIDES
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _RECTS),
        st.tuples(st.just("delete"), _RECTS),
        st.tuples(st.just("refresh"), st.none()),
        st.tuples(st.just("roundtrip"), st.booleans()),
    ),
    max_size=40,
)


class TestRowStoreDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_RECTS, min_size=1, max_size=6), _OPS)
    def test_matches_list_model(self, initial, ops):
        partitioner = MinSkewPartitioner(3, n_regions=16)
        data = RectSet(np.array([r.as_tuple() for r in initial]))
        hist = MaintainedHistogram(partitioner, data)
        model = _ListModel(hist)
        for kind, arg in ops:
            if kind == "insert":
                hist.insert(arg)
                model.insert(arg)
            elif kind == "delete":
                assert hist.delete(arg) == model.delete(arg)
            elif kind == "refresh":
                hist.refresh()
                model.refresh()
            else:
                # arg=True: the inline-list layout of old checkpoints
                state = hist.state()
                if arg:
                    state["rows"] = state["rows"].tolist()
                hist = MaintainedHistogram.from_state(partitioner, state)
            got = hist.current_data().coords
            want = model.coords()
            assert np.array_equal(got, want)
            # the byte check pins which of two value-equal rows a
            # delete removed (-0.0 and 0.0 compare equal)
            assert got.tobytes() == want.tobytes()
            assert hist.buckets == model.buckets
            assert hist.epoch == model.epoch
            assert len(hist) == len(model.rows)

    def test_delete_removes_earliest_equal_row(self):
        data = RectSet(np.array([
            [-0.0, 0.0, 1.0, 1.0],
            [5.0, 5.0, 6.0, 6.0],
            [0.0, 0.0, 1.0, 1.0],
        ]))
        hist = MaintainedHistogram(MinSkewPartitioner(2, n_regions=16), data)
        assert hist.delete(Rect(0.0, 0.0, 1.0, 1.0))
        got = hist.current_data().coords
        assert got.tobytes() == np.array([
            [5.0, 5.0, 6.0, 6.0],
            [0.0, 0.0, 1.0, 1.0],
        ]).tobytes()

    def test_current_data_is_a_copy(self, hist):
        before = hist.current_data()
        snapshot = before.coords.copy()
        hist.delete(before[0])
        hist.insert(Rect(1.0, 1.0, 2.0, 2.0))
        assert before.coords.tobytes() == snapshot.tobytes()
