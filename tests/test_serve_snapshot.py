"""SnapshotStore: epoch isolation and concurrency.

Two layers of evidence that readers can never observe a torn epoch:

* **property tests** (hypothesis) drive the store through arbitrary
  interleavings of publishes, pins and staged batch reads and assert
  every batch's answers come from exactly one epoch — the pin taken
  at batch start keeps serving that labelling even while newer epochs
  land mid-batch;
* **threaded tests** (one thread per reader): N readers against a hot
  publisher for ~a second, asserting zero exceptions and monotone epoch
  observations; and readers pinned while an
  ``IncrementalRepartitioner`` publishes derived epochs, asserting
  every pinned answer matches the labels that epoch was published with.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.serve import SegmentIndex, SnapshotStore
from repro.serve.snapshot import attach_repartitioner

N_SEGMENTS = 60


def _run_threads(fn, items):
    """``[fn(item) for item in items]``, each call on its own thread."""
    with ThreadPoolExecutor(max_workers=len(items)) as pool:
        return list(pool.map(fn, items))


def _index(epoch_value: int) -> SegmentIndex:
    """An index whose every label encodes the epoch that built it.

    With all labels equal to ``epoch_value``, any mixed-epoch read is
    immediately visible as a non-constant answer vector.
    """
    return SegmentIndex(np.full(N_SEGMENTS, epoch_value, dtype=np.int64))


# ----------------------------------------------------------------------
# property-based epoch isolation
class TestEpochIsolationProperties:
    @given(
        # each entry: how many publishes land between two chunks of one
        # staged batch read (0 = none); several batches in sequence
        schedule=st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_never_mixes_epochs(self, schedule):
        """A batch pinned at its start answers everything from that
        epoch, however many publishes interleave with its chunks."""
        store = SnapshotStore()
        published = 0

        def publish_next():
            nonlocal published
            published += 1
            store.publish(_index(published))

        publish_next()  # epoch 1
        try:
            for batch_plan in schedule:
                answers = []
                with store.pinned() as snap:
                    start_epoch = snap.epoch
                    chunk = np.arange(0, N_SEGMENTS, len(batch_plan))
                    for publishes_now in batch_plan:
                        for __ in range(publishes_now):
                            publish_next()  # concurrent epoch swap
                        answers.append(snap.index.regions_of(chunk))
                flat = np.concatenate(answers)
                # labels encode the epoch: one distinct value == no torn read
                assert set(np.unique(flat)) == {start_epoch}
                # and the pinned epoch was the one at batch start
                assert start_epoch <= published
        finally:
            store.close()

    @given(n_publishes=st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_epoch_ids_are_monotone_and_current_wins(self, n_publishes):
        store = SnapshotStore()
        seen = []
        for i in range(1, n_publishes + 1):
            snap = store.publish(_index(i))
            seen.append(snap.epoch)
            assert store.current() is snap
        assert seen == list(range(1, n_publishes + 1))
        store.close()

    @given(
        reads=st.lists(
            st.tuples(
                st.booleans(),  # publish before this read?
                st.integers(min_value=0, max_value=N_SEGMENTS - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_unpinned_reads_always_see_a_complete_epoch(self, reads):
        """Even without pinning, a single read resolves one epoch whose
        index is internally consistent (labels all from that epoch)."""
        store = SnapshotStore()
        epoch = 1
        store.publish(_index(epoch))
        for do_publish, segment in reads:
            if do_publish:
                epoch += 1
                store.publish(_index(epoch))
            snap = store.current()
            assert snap.index.region_of(segment) == snap.epoch
        store.close()


# ----------------------------------------------------------------------
# store semantics
class TestStoreSemantics:
    def test_current_before_first_publish_raises(self):
        store = SnapshotStore()
        with pytest.raises(ServeError):
            store.current()
        with pytest.raises(ServeError):
            store.pin()

    def test_publish_requires_an_index(self):
        store = SnapshotStore()
        with pytest.raises(ServeError):
            store.publish(np.arange(4))  # raw arrays are not epochs

    def test_pin_keeps_retired_epoch_alive(self):
        store = SnapshotStore()
        store.publish(_index(1))
        snap1 = store.pin()
        store.publish(_index(2))
        # the retired epoch still answers from its own labelling
        assert snap1.index.region_of(0) == 1
        assert store.current().index.region_of(0) == 2
        assert store.pinned_epochs() == {1: 1}
        store.unpin(snap1)
        assert store.pinned_epochs() == {}
        store.close()

    def test_unpin_without_pin_raises(self):
        store = SnapshotStore()
        snap = store.publish(_index(1))
        with pytest.raises(ServeError):
            store.unpin(snap)
        store.close()

    def test_publish_after_close_raises(self):
        store = SnapshotStore()
        store.publish(_index(1))
        store.close()
        with pytest.raises(ServeError):
            store.publish(_index(2))
        store.close()  # idempotent

    def test_max_epochs_is_enforced(self):
        store = SnapshotStore(max_epochs=2)
        store.publish(_index(1))
        store.publish(_index(2))
        with pytest.raises(ServeError):
            store.publish(_index(3))
        store.close()

    def test_subscribe_fires_and_unsubscribes(self):
        store = SnapshotStore()
        epochs = []
        unsubscribe = store.subscribe(lambda snap: epochs.append(snap.epoch))
        store.publish(_index(1))
        store.publish(_index(2))
        unsubscribe()
        store.publish(_index(3))
        assert epochs == [1, 2]
        store.close()

    def test_listener_exception_does_not_block_publish(self):
        store = SnapshotStore()

        def bad_listener(snap):
            raise RuntimeError("boom")

        store.subscribe(bad_listener)
        snap = store.publish(_index(1))  # must not raise
        assert store.current() is snap
        store.close()


# ----------------------------------------------------------------------
# epochs derived by attach_repartitioner
class TestAttachedEpochs:
    def test_pinned_epoch_keeps_its_labels_across_derived_publishes(
        self, small_grid, small_grid_graph
    ):
        store = SnapshotStore()
        repartitioner = IncrementalRepartitioner(small_grid_graph, k=5, seed=0)
        attach_repartitioner(store, repartitioner, network=small_grid)
        densities = np.asarray(small_grid_graph.features, dtype=float)
        first = repartitioner.bootstrap(densities)
        with store.pinned() as snap:
            changed = densities * 4.0
            report = repartitioner.update(changed)
            assert not np.array_equal(report.labels, first)
            current = store.current()
            assert current.epoch == snap.epoch + 1
            # the new epoch shares the pinned one's kd-tree ...
            assert current.index._kdtree is snap.index._kdtree
            np.testing.assert_array_equal(current.index.labels, report.labels)
            # ... while the pinned epoch answers from its own labels
            np.testing.assert_array_equal(snap.index.labels, first)
            ids = np.arange(small_grid_graph.n_nodes)
            np.testing.assert_array_equal(snap.index.regions_of(ids), first)
            points = snap.index.points
            for segment in range(0, small_grid_graph.n_nodes, 9):
                found = snap.index.lookup_point(*points[segment])
                assert found["region"] == int(first[found["segment"]])
            assert snap.index.quality()["k"] == float(first.max() + 1)
        store.close()


    def test_pins_during_updates_never_see_a_torn_epoch(
        self, small_grid, small_grid_graph
    ):
        """Readers pinned while ``update()`` publishes derived epochs
        (relabels sharing one kd-tree) answer every query — labels,
        batch lookups and point lookups — from the pinned epoch."""
        store = SnapshotStore()
        published = {}
        store.subscribe(
            lambda snap: published.__setitem__(
                snap.epoch, np.array(snap.index.labels, copy=True)
            )
        )
        repartitioner = IncrementalRepartitioner(small_grid_graph, k=5, seed=0)
        attach_repartitioner(store, repartitioner, network=small_grid)
        base = np.asarray(small_grid_graph.features, dtype=float)
        repartitioner.bootstrap(base)
        rng = np.random.default_rng(7)
        fresh = [base * rng.uniform(0.2, 5.0, base.shape) for __ in range(8)]
        n = small_grid_graph.n_nodes
        ids = np.arange(n)
        points = store.current().index.points
        done = threading.Event()
        errors = []

        def writer():
            try:
                for densities in fresh:
                    repartitioner.update(densities)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader(worker: int):
            seen = []
            while True:
                finished = done.is_set()
                with store.pinned() as snap:
                    seen.append(
                        (
                            snap.epoch,
                            np.array(snap.index.labels, copy=True),
                            snap.index.regions_of(ids),
                            [
                                snap.index.lookup_point(*points[segment])
                                for segment in range(worker, n, 4)
                            ],
                        )
                    )
                if finished:
                    return seen

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        observations = _run_threads(reader, [0, 1, 2, 3])
        thread.join(timeout=60)
        store.close()
        assert not errors, f"update failed: {errors!r}"
        assert sorted(published) == list(range(1, len(fresh) + 2))
        distinct = {labels.tobytes() for labels in published.values()}
        assert len(distinct) > 1, "no update changed the labels"
        pinned_epochs = set()
        for seen in observations:
            for epoch, labels, regions, found in seen:
                expected = published[epoch]
                np.testing.assert_array_equal(labels, expected)
                np.testing.assert_array_equal(regions, expected)
                for hit in found:
                    assert hit["region"] == int(expected[hit["segment"]])
                pinned_epochs.add(epoch)
        # the last pin of every reader sees the final epoch
        assert len(fresh) + 1 in pinned_epochs


# ----------------------------------------------------------------------
# threaded stress: N readers + 1 publisher
class TestConcurrencyStress:
    def test_readers_never_crash_and_epochs_are_monotone(self):
        store = SnapshotStore()
        store.publish(_index(1))
        stop = threading.Event()
        errors = []

        def publisher():
            epoch = 1
            while not stop.is_set():
                epoch += 1
                try:
                    store.publish(_index(epoch))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        thread = threading.Thread(target=publisher, daemon=True)
        thread.start()

        deadline = time.monotonic() + 1.0

        def reader(worker: int):
            last_epoch = 0
            n_reads = 0
            try:
                while time.monotonic() < deadline:
                    with store.pinned() as snap:
                        ids = np.arange(worker, N_SEGMENTS, 4)
                        regions = snap.index.regions_of(ids)
                        # epoch-encoded labels: one batch, one epoch
                        assert set(np.unique(regions)) == {snap.epoch}
                        assert snap.epoch >= last_epoch  # monotone
                        last_epoch = snap.epoch
                    n_reads += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            return n_reads

        reads = _run_threads(reader, [0, 1, 2, 3])
        stop.set()
        thread.join(timeout=10)
        store.close()
        assert not errors, f"concurrent readers/publisher failed: {errors!r}"
        assert all(n > 0 for n in reads), f"a reader made no progress: {reads}"
        assert store.last_epoch > 1, "publisher made no progress"
