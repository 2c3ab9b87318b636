"""Differential lockdown of the serving fast paths.

The serving layer promises that none of its accelerations changes a
single bit of output:

* every estimator's ``estimate_batch`` equals the scalar
  one-query-at-a-time loop to **exact float equality** (both routes
  run the same numpy kernels, scalar as a batch of one), including on
  degenerate inputs: point data, empty buckets, full-space and miss
  queries;
* serving through the engine's scalar LRU cache equals serving
  without it, across repeated and duplicated queries, and the batch
  path neither reads nor fills that cache;
* an ``evaluate_sweep`` with ``workers=4`` is byte-identical to
  ``workers=1`` — same summaries, same dict order, same merged
  counters.

Hypothesis drives the workloads; the dataset is fixed so estimator
construction is paid once per technique.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import Bucket
from repro.data import charminar, uniform_rects
from repro.estimators import BucketEstimator
from repro.estimators.exact import ExactEstimator
from repro.eval import ALL_TECHNIQUES, ExperimentRunner, build_estimator
from repro.geometry import Rect, RectSet
from repro.serving import BatchServingEngine
from repro.workload import point_queries, range_queries

DATA = charminar(1_200, seed=5)

#: Every technique, plus the exact oracle behind the same interface.
SERVED = tuple(ALL_TECHNIQUES) + ("Exact",)


def _build(technique):
    if technique == "Exact":
        return ExactEstimator(DATA)
    return build_estimator(technique, DATA, 16, n_regions=400)


@pytest.fixture(scope="module", params=SERVED)
def estimator(request):
    return _build(request.param)


def _scalar_loop(est, queries):
    return np.array([est.estimate(q) for q in queries],
                    dtype=np.float64)


def random_dataset(seed):
    """10-300 random rectangles, a third of them points half the
    time."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(10, 300))
    cx = gen.uniform(0, 1_000, n)
    cy = gen.uniform(0, 1_000, n)
    w = gen.uniform(0, 60, n)
    h = gen.uniform(0, 60, n)
    if gen.integers(0, 2):
        w[: n // 3] = 0.0
        h[: n // 3] = 0.0  # mix in point rectangles
    return RectSet.from_centers(cx, cy, w, h)


def _assert_paths_agree(est, queries):
    """Batch, scalar loop, and both engine paths answer identically;
    returns the batch answer."""
    batch = est.estimate_batch(queries)
    engine = BatchServingEngine(est)
    np.testing.assert_array_equal(_scalar_loop(est, queries), batch)
    np.testing.assert_array_equal(engine.estimate_batch(queries), batch)
    np.testing.assert_array_equal(_scalar_loop(engine, queries), batch)
    return batch


class TestBatchEqualsScalar:
    @given(
        seed=st.integers(0, 10_000),
        qsize=st.floats(0.01, 0.3),
        n=st.integers(1, 50),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_scalar_loop_exactly(
        self, estimator, seed, qsize, n
    ):
        queries = range_queries(DATA, qsize, n, seed=seed)
        batch = estimator.estimate_batch(queries)
        scalar = _scalar_loop(estimator, queries)
        assert batch.dtype == np.float64
        assert batch.shape == (n,)
        # exact equality, not allclose: both paths must round
        # identically
        np.testing.assert_array_equal(batch, scalar)

    def test_point_queries_agree_exactly(self, estimator):
        queries = point_queries(DATA, 40, seed=3)
        np.testing.assert_array_equal(
            estimator.estimate_batch(queries),
            _scalar_loop(estimator, queries),
        )

    def test_empty_batch(self, estimator):
        out = estimator.estimate_batch(RectSet.empty())
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_point_rect_data_exact(self):
        # every bucket degenerate: contributions are whole counts
        gen = np.random.default_rng(3)
        pts = gen.uniform(0, 100, (200, 2))
        data = RectSet.from_centers(
            pts[:, 0], pts[:, 1], np.zeros(200), np.zeros(200)
        )
        est = build_estimator("Grid", data, 16)
        _assert_paths_agree(est, range_queries(data, 0.1, 60, seed=4))

    def test_full_space_query_exact(self):
        data = random_dataset(17)
        est = build_estimator("Min-Skew", data, 12, n_regions=144)
        mbr = data.mbr()
        full = RectSet(np.array([[mbr.x1 - 100, mbr.y1 - 100,
                                  mbr.x2 + 100, mbr.y2 + 100]]))
        _assert_paths_agree(est, full)

    def test_all_empty_buckets(self):
        boxes = [Rect(10.0 * i, 0.0, 10.0 * i + 10.0, 10.0)
                 for i in range(5)]
        est = BucketEstimator([Bucket(b, 0) for b in boxes],
                              name="empty")
        out = _assert_paths_agree(
            est, RectSet(np.array([[0.0, 0.0, 50.0, 10.0]]))
        )
        np.testing.assert_array_equal(out, [0.0])

    def test_degenerate_space_single_cell(self):
        # co-located point buckets: a zero-extent space
        est = BucketEstimator(
            [Bucket(Rect(5.0, 5.0, 5.0, 5.0), 3) for _ in range(4)],
            name="points",
        )
        out = _assert_paths_agree(est, RectSet(np.array([
            [0.0, 0.0, 10.0, 10.0],
            [6.0, 6.0, 7.0, 7.0],
        ])))
        np.testing.assert_array_equal(out, [12.0, 0.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_general_case_bit_identical(self, seed):
        data = random_dataset(seed)
        est = build_estimator("Min-Skew", data, 12, n_regions=144)
        _assert_paths_agree(
            est, range_queries(data, 0.07, 30, seed=seed + 1)
        )

    def test_miss_query_returns_zero(self):
        data = random_dataset(23)
        est = build_estimator("Grid", data, 9)
        far = RectSet(np.array([[1e7, 1e7, 1e7 + 1.0, 1e7 + 1.0]]))
        np.testing.assert_array_equal(
            _assert_paths_agree(est, far), [0.0]
        )


class TestCacheTransparency:
    """The engine's cache serves the scalar path only."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_cache_on_equals_cache_off(self, estimator, seed):
        queries = range_queries(DATA, 0.08, 30, seed=seed)
        reference = estimator.estimate_batch(queries)
        engine = BatchServingEngine(estimator, cache_size=64)
        cold = _scalar_loop(engine, queries)
        warm = _scalar_loop(engine, queries)
        np.testing.assert_array_equal(cold, reference)
        np.testing.assert_array_equal(warm, reference)
        assert engine.cache.hits >= len(queries)

    def test_duplicate_queries_within_one_batch(self, estimator):
        base = range_queries(DATA, 0.05, 20, seed=9)
        doubled = RectSet(np.vstack([base.coords, base.coords]))
        reference = estimator.estimate_batch(doubled)
        engine = BatchServingEngine(estimator)
        np.testing.assert_array_equal(
            engine.estimate_batch(doubled), reference
        )
        # one query at a time, the second copy of each query is
        # answered from the cache
        np.testing.assert_array_equal(
            _scalar_loop(engine, doubled), reference
        )
        assert engine.cache.hits >= 20

    def test_eviction_preserves_answers(self, estimator):
        queries = range_queries(DATA, 0.05, 40, seed=11)
        reference = estimator.estimate_batch(queries)
        engine = BatchServingEngine(estimator, cache_size=8)
        for _ in range(3):
            np.testing.assert_array_equal(
                _scalar_loop(engine, queries), reference
            )
        assert engine.cache.evictions > 0

    def test_scalar_path_uses_cache(self, estimator):
        queries = range_queries(DATA, 0.05, 10, seed=13)
        engine = BatchServingEngine(estimator)
        first = [engine.estimate(q) for q in queries]
        hits_before = engine.cache.hits
        second = [engine.estimate(q) for q in queries]
        assert first == second
        assert engine.cache.hits == hits_before + len(queries)

    def test_batch_path_bypasses_cache(self, estimator):
        queries = range_queries(DATA, 0.05, 10, seed=13)
        engine = BatchServingEngine(estimator)
        for _ in range(2):
            np.testing.assert_array_equal(
                engine.estimate_batch(queries),
                estimator.estimate_batch(queries),
            )
        assert len(engine.cache) == 0
        assert engine.cache.hits + engine.cache.misses == 0


class TestParallelSweepDeterminism:
    SWEEP_TECHNIQUES = ("Min-Skew", "Sample", "Uniform", "Fractal")

    def _sweep(self, workers, capture):
        data = uniform_rects(700, seed=21)
        queries = range_queries(data, 0.08, 120, seed=22)
        runner = ExperimentRunner(data)
        results, counters = capture(lambda: runner.evaluate_sweep(
            self.SWEEP_TECHNIQUES, queries, 12, n_regions=256,
            workers=workers,
        ))
        return results, counters

    def test_workers_4_byte_identical_to_workers_1(
        self, capture_counters
    ):
        serial, serial_counters = self._sweep(1, capture_counters)
        parallel, parallel_counters = self._sweep(4, capture_counters)
        assert list(serial) == list(parallel)
        for technique in self.SWEEP_TECHNIQUES:
            # dataclass equality compares every float field exactly
            assert serial[technique] == parallel[technique]
        assert serial_counters == parallel_counters

    def test_parallel_map_preserves_order(self):
        from repro.serving import parallel_map

        items = list(range(23))
        assert parallel_map(_double, items, workers=3) == [
            2 * i for i in items
        ]
        assert parallel_map(_double, [], workers=3) == []


def _double(x):
    return 2 * x
