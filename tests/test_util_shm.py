"""ShardContext: zero-copy semantics and shared-memory lifecycle.

The lifecycle tests run under the shared ``shm_tracker`` fixture
(``tests/conftest.py``), which patches ``SharedMemory`` creation to
track every OS-level block name this process allocates, then asserts
each one was unlinked — on success, on worker exceptions, and on
KeyboardInterrupt. A leaked block would outlive the interpreter (it
lives in /dev/shm), so these tests are the no-leak guarantee of the
whole data plane.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ReproError
from repro.util.parallel import map_parallel
from repro.util.shm import ShardContext, active_shard, set_worker_shard, use_shard


class TestRegistrationAndAccess:
    def test_get_returns_registered_array_zero_copy(self):
        ctx = ShardContext()
        arr = np.arange(6, dtype=float)
        ctx.put("x", arr)
        assert ctx.get("x") is arr  # no copy before share()

    def test_non_contiguous_input_is_made_contiguous(self):
        ctx = ShardContext()
        arr = np.arange(12, dtype=float).reshape(3, 4).T
        ctx.put("x", arr)
        out = ctx.get("x")
        assert out.flags["C_CONTIGUOUS"]
        assert np.array_equal(out, arr)

    def test_csr_round_trip(self):
        ctx = ShardContext()
        mat = sp.random(20, 20, density=0.2, format="csr", random_state=3)
        ctx.put_csr("m", mat)
        out = ctx.get_csr("m")
        assert (out != mat.tocsr()).nnz == 0
        assert ctx.has("m") and ctx.has("m.data")

    def test_missing_names_raise(self):
        ctx = ShardContext()
        with pytest.raises(ReproError):
            ctx.get("nope")
        with pytest.raises(ReproError):
            ctx.get_csr("nope")

    def test_zero_size_array(self):
        ctx = ShardContext()
        ctx.put("empty", np.array([], dtype=float))
        with ctx:
            ctx.share()
            assert ctx.get("empty").size == 0

    def test_put_after_share_rejected(self, shm_tracker):
        with ShardContext() as ctx:
            ctx.put("a", np.ones(3))
            ctx.share()
            with pytest.raises(ReproError):
                ctx.put("b", np.ones(3))


class TestShareAttach:
    def test_share_is_idempotent(self, shm_tracker):
        with ShardContext() as ctx:
            ctx.put("x", np.arange(5, dtype=float))
            d1 = ctx.share()
            d2 = ctx.share()
            assert d1 == d2
            assert len(ctx.block_names()) == 1

    def test_attached_context_sees_owner_data(self, shm_tracker):
        arr = np.linspace(0.0, 1.0, 17)
        mat = sp.random(10, 10, density=0.3, format="csr", random_state=1)
        with ShardContext() as owner:
            owner.put("vec", arr)
            owner.put_csr("mat", mat)
            worker = ShardContext.attach(owner.share())
            try:
                assert np.array_equal(worker.get("vec"), arr)
                assert (worker.get_csr("mat") != mat.tocsr()).nnz == 0
            finally:
                worker.close()

    def test_attached_context_cannot_put_or_share(self, shm_tracker):
        with ShardContext() as owner:
            owner.put("x", np.ones(4))
            worker = ShardContext.attach(owner.share())
            try:
                with pytest.raises(ReproError):
                    worker.put("y", np.ones(2))
                with pytest.raises(ReproError):
                    worker.share()
            finally:
                worker.close()

    def test_worker_unlink_is_a_noop(self, shm_tracker):
        with ShardContext() as owner:
            owner.put("x", np.ones(4))
            worker = ShardContext.attach(owner.share())
            worker.close()
            worker.unlink()  # must NOT free the owner's blocks
            assert np.array_equal(owner.get("x"), np.ones(4))


class TestLifecycle:
    def test_blocks_unlinked_on_success(self, shm_tracker):
        with ShardContext() as ctx:
            ctx.put("x", np.arange(100.0))
            ctx.share()
            names = ctx.block_names()
        assert names  # something was created, the fixture checks unlink

    def test_blocks_unlinked_on_exception(self, shm_tracker):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardContext() as ctx:
                ctx.put("x", np.arange(50.0))
                ctx.share()
                raise RuntimeError("boom")

    def test_blocks_unlinked_on_keyboard_interrupt(self, shm_tracker):
        with pytest.raises(KeyboardInterrupt):
            with ShardContext() as ctx:
                ctx.put("x", np.arange(50.0))
                ctx.share()
                raise KeyboardInterrupt()

    def test_blocks_unlinked_on_worker_exception(self, shm_tracker):
        with pytest.raises(ValueError, match="item 2"):
            with ShardContext() as ctx:
                ctx.put("data", np.arange(10.0))
                map_parallel(_maybe_boom, range(5), workers=2, shard=ctx)

    def test_close_is_idempotent(self, shm_tracker):
        ctx = ShardContext()
        ctx.put("x", np.ones(8))
        ctx.share()
        ctx.close()
        ctx.close()
        ctx.unlink()
        ctx.unlink()

    def test_share_after_close_rejected(self, shm_tracker):
        with ShardContext() as ctx:
            ctx.put("x", np.ones(8))
            ctx.share()
        with pytest.raises(ReproError):
            ctx.share()


def _maybe_boom(i):
    data = active_shard().get("data")
    if i == 2:
        raise ValueError("item 2")
    return float(data[i])


def _read_item(i):
    return float(active_shard().get("data")[i]) * 3.0


class TestAmbientShard:
    def test_no_shard_raises(self):
        set_worker_shard(None)
        with pytest.raises(ReproError, match="no active ShardContext"):
            active_shard()

    def test_use_shard_installs_and_restores(self):
        ctx = ShardContext()
        ctx.put("data", np.arange(4.0))
        with use_shard(ctx):
            assert active_shard() is ctx
        with pytest.raises(ReproError):
            active_shard()

    @pytest.mark.parametrize("pool", ["serial", "process"])
    def test_same_fn_in_every_mode(self, pool, shm_tracker):
        """One ``fn`` reads the shard in the loop and in the process pool."""
        workers = 1 if pool == "serial" else 2
        with ShardContext() as ctx:
            ctx.put("data", np.arange(6.0))
            out = map_parallel(_read_item, range(6), workers=workers, shard=ctx)
        assert out == [i * 3.0 for i in range(6)]
