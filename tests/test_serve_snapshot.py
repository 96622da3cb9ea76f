"""SnapshotStore: epoch isolation and concurrency.

Two layers of evidence that readers can never observe a torn epoch:

* **property tests** (hypothesis) drive the store through arbitrary
  interleavings of publishes, pins and staged batch reads and assert
  every batch's answers come from exactly one epoch — the pin taken
  at batch start keeps serving that labelling even while newer epochs
  land mid-batch;
* a **threaded stress test** (the pool from ``repro.util.parallel``)
  runs N readers against a hot publisher for ~a second and asserts
  zero exceptions and monotone epoch observations.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.serve import SegmentIndex, SnapshotStore
from repro.util.parallel import map_parallel

N_SEGMENTS = 60


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

        reads = map_parallel(reader, [0, 1, 2, 3], workers=4)
        stop.set()
        thread.join(timeout=10)
        store.close()
        assert not errors, f"concurrent readers/publisher failed: {errors!r}"
        assert all(n > 0 for n in reads), f"a reader made no progress: {reads}"
        assert store.last_epoch > 1, "publisher made no progress"
