"""map_parallel: worker resolution, pool choice, ordering, determinism, metrics."""

import os
from contextlib import nullcontext

import numpy as np
import pytest

from repro.clustering.optimality import scan_kappa
from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry, incr, observe, use_registry
from repro.util.parallel import WORKERS_ENV_VAR, map_parallel, resolve_workers
from repro.util.shm import ShardContext

#: pool -> (workers, sharded): a loop at one worker, threads without a
#: shard, processes with one
POOLS = {"serial": (1, False), "thread": (2, False), "process": (2, True)}


def _pool_map(fn, items, pool):
    """``map_parallel`` arranged so that it picks ``pool``."""
    workers, sharded = POOLS[pool]
    with ShardContext() if sharded else nullcontext() as shard:
        return map_parallel(fn, items, workers=workers, shard=shard)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5

    def test_serial_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "  ")
        assert resolve_workers(None) == 1

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_zero_env_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [-1, -2, "three", 0.5, 2.7, True])
    def test_invalid_counts_rejected(self, bad, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            resolve_workers(bad)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(ReproError):
            resolve_workers(None)


class TestMapParallel:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_map_in_order(self, workers):
        items = list(range(23))
        assert map_parallel(lambda x: x * x, items, workers=workers) == [
            x * x for x in items
        ]

    def test_empty_items(self):
        assert map_parallel(lambda x: x, [], workers=4) == []

    def test_generator_items(self):
        assert map_parallel(lambda x: -x, (i for i in range(5)), workers=2) == [
            0,
            -1,
            -2,
            -3,
            -4,
        ]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("item 3 failed")
            return x

        with pytest.raises(ValueError, match="item 3 failed"):
            map_parallel(boom, range(6), workers=4)

    def test_process_mode(self):
        """A shard selects the process pool; order is still preserved."""
        assert _pool_map(abs, [-2, -1, 0, 1], "process") == [2, 1, 0, 1]


def _record_and_square(x):
    incr("work.items")
    incr("work.total", x)
    observe("work.value", x)
    return x * x


class TestProcessMetricsMergeBack:
    """Process workers must not drop metrics (the observability hole)."""

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_worker_metrics_reach_caller(self, pool):
        registry = MetricsRegistry()
        with use_registry(registry):
            out = _pool_map(_record_and_square, range(6), pool)
        assert out == [x * x for x in range(6)]
        assert registry.counter("work.items") == 6
        assert registry.counter("work.total") == sum(range(6))
        hist = registry.histogram("work.value")
        assert hist is not None
        assert hist.count == 6
        assert hist.total == sum(range(6))
        assert hist.min == 0 and hist.max == 5

    def test_pool_bookkeeping_metrics(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            _pool_map(_record_and_square, range(5), "process")
        assert registry.counter("parallel.maps") == 1
        assert registry.counter("parallel.items") == 5
        assert registry.gauge("parallel.workers") == 2
        assert registry.histogram("parallel.item_seconds").count == 5
        utilization = registry.gauge("parallel.utilization")
        assert utilization is not None and 0.0 <= utilization <= 1.0

    def test_no_registry_is_fine(self):
        assert _pool_map(_record_and_square, range(4), "process") == [0, 1, 4, 9]


class TestKappaScanDeterminism:
    def test_workers_do_not_change_the_scan(self):
        """workers=1 and workers=4 must give identical kappa-scan output."""
        rng = np.random.default_rng(11)
        values = rng.gamma(2.0, 0.02, size=240)

        serial = scan_kappa(values, kappa_max=12, workers=1)
        parallel = scan_kappa(values, kappa_max=12, workers=4)

        assert serial.kappas == parallel.kappas
        assert serial.mcg == parallel.mcg
        assert serial.best_kappa == parallel.best_kappa
        for a, b in zip(serial.results, parallel.results):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.centers, b.centers)
            assert a.inertia == b.inertia

    def test_env_var_drives_scan_workers(self, monkeypatch):
        rng = np.random.default_rng(3)
        values = rng.gamma(2.0, 0.02, size=120)
        baseline = scan_kappa(values, kappa_max=8)
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        via_env = scan_kappa(values, kappa_max=8)
        assert baseline.mcg == via_env.mcg
