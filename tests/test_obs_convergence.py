"""Tests for repro.obs.convergence: solver telemetry on spans.

Covers the ConvergenceTrace record (recording, finish, exact JSON
round-trip under hypothesis, schema rejection), the attach/harvest
path through real spans (including the per-span cap), the
enabled/disabled gating, and the instrumented kernels — both k-means
variants, boundary refinement and the eigensolver outcome record that
rides into results, manifests and persistence.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kmeans_1d_prefix_reference

from repro.clustering.kmeans import kmeans, kmeans_1d, kmeans_1d_batch
from repro.clustering.optimality import scan_kappa
from repro.core.boundary_refine import boundary_refine
from repro.core.spectral import (
    consume_eigensolver_outcome,
    last_eigensolver_outcome,
    smallest_eigenvectors,
)
from repro.datasets import small_network
from repro.datasets.large import melbourne_like
from repro.obs import ObsContext
from repro.obs.convergence import (
    CONVERGENCE_SCHEMA_VERSION,
    MAX_TRACES_PER_SPAN,
    ConvergenceTrace,
    attach_convergence,
    convergence_enabled,
    convergence_wanted,
    traces_from_attrs,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, activate_tracer
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.pipeline.persistence import result_from_dict, result_to_dict


def _ring_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


# ----------------------------------------------------------------------
# the record itself
class TestConvergenceTrace:
    def test_record_and_n_iter(self):
        conv = ConvergenceTrace("lanczos")
        assert conv.n_iter == 0
        conv.record(beta=0.5)
        conv.record(beta=0.25, ritz=1.0)
        assert conv.n_iter == 2
        assert conv.series["beta"] == [0.5, 0.25]
        assert conv.series["ritz"] == [1.0]

    def test_finish_sets_flag_and_meta(self):
        conv = ConvergenceTrace("kmeans_1d", meta={"n": 10})
        out = conv.finish(converged=True, inertia=3.5)
        assert out is conv
        assert conv.converged is True
        assert conv.meta == {"n": 10, "inertia": 3.5}

    def test_to_dict_shape(self):
        conv = ConvergenceTrace("x", series={"r": [1.0, 0.5]}, converged=False)
        doc = conv.to_dict()
        assert doc["schema_version"] == CONVERGENCE_SCHEMA_VERSION
        assert doc["solver"] == "x"
        assert doc["n_iter"] == 2
        assert doc["converged"] is False
        json.dumps(doc)  # JSON-serialisable

    def test_from_dict_rejects_wrong_schema(self):
        doc = ConvergenceTrace("x", series={"r": [1.0]}).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            ConvergenceTrace.from_dict(doc)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError):
            ConvergenceTrace.from_dict([1, 2, 3])

    @given(
        solver=st.sampled_from(
            ["lanczos", "kmeans_1d", "kmeans_nd", "boundary_refine"]
        ),
        series=st.dictionaries(
            st.text(
                alphabet="abcdefghij_", min_size=1, max_size=8
            ),
            st.lists(
                st.floats(
                    min_value=-1e6,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                max_size=12,
            ),
            max_size=4,
        ),
        converged=st.sampled_from([None, True, False]),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, solver, series, converged):
        conv = ConvergenceTrace(solver, series=series, converged=converged)
        through_json = json.loads(json.dumps(conv.to_dict()))
        rebuilt = ConvergenceTrace.from_dict(through_json)
        assert rebuilt.solver == conv.solver
        assert rebuilt.series == conv.series
        assert rebuilt.converged == conv.converged
        assert rebuilt.to_dict() == conv.to_dict()


# ----------------------------------------------------------------------
# attach / harvest
class TestAttach:
    def test_disabled_without_any_sink(self):
        assert convergence_enabled() is False
        assert attach_convergence(ConvergenceTrace("x")) is False

    def test_enabled_with_tracer_or_metrics(self):
        # traces ride spans: a tracer enables them, a metrics registry
        # alone does not (it would build traces only to drop them)
        with activate_tracer(Tracer()):
            assert convergence_enabled() is True
        with use_registry(MetricsRegistry()):
            assert convergence_enabled() is False
            assert convergence_wanted() is False

    def test_wanted_false_without_an_open_span(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            assert convergence_wanted() is False
            with tracer.span("solve"):
                assert convergence_wanted() is True

    def test_attach_to_current_span(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("solve") as span:
                assert attach_convergence(
                    ConvergenceTrace("x", series={"r": [1.0]})
                )
        harvested = traces_from_attrs(span.attrs)
        assert len(harvested) == 1
        assert harvested[0].solver == "x"

    def test_per_span_cap(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("hot") as span:
                stored = [
                    attach_convergence(ConvergenceTrace("x"))
                    for __ in range(MAX_TRACES_PER_SPAN + 3)
                ]
        assert sum(stored) == MAX_TRACES_PER_SPAN
        assert span.attrs["convergence_dropped"] == 3
        assert len(span.attrs["convergence"]) == MAX_TRACES_PER_SPAN

    def test_wanted_false_once_span_saturated(self):
        # the hot-path pre-check: once the innermost span is full,
        # solvers must not even build a trace — and each skipped run
        # still counts as dropped
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("hot") as span:
                for __ in range(MAX_TRACES_PER_SPAN):
                    assert convergence_wanted() is True
                    attach_convergence(ConvergenceTrace("x"))
                assert convergence_wanted() is False
                assert convergence_wanted() is False
        assert span.attrs["convergence_dropped"] == 2
        assert len(span.attrs["convergence"]) == MAX_TRACES_PER_SPAN

    def test_harvest_tolerates_garbage(self):
        attrs = {"convergence": [{"schema_version": 42}, "nonsense", None]}
        assert traces_from_attrs(attrs) == []
        assert traces_from_attrs(None) == []
        assert traces_from_attrs({"other": 1}) == []


# ----------------------------------------------------------------------
# instrumented kernels
class TestInstrumentedSolvers:
    def _solo_trace(self, fn):
        """Run ``fn`` under a span; return the harvested traces."""
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("host") as span:
                fn()
        return traces_from_attrs(span.attrs)

    def test_kmeans_1d_records_shift_series(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=60)
        traces = self._solo_trace(lambda: kmeans_1d(values, 3))
        solvers = [t.solver for t in traces]
        assert "kmeans_1d" in solvers
        trace = traces[solvers.index("kmeans_1d")]
        assert trace.n_iter >= 1
        assert "shift" in trace.series
        assert trace.converged is True

    def test_kmeans_nd_records_per_restart(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(80, 3))
        traces = self._solo_trace(lambda: kmeans(points, 4, n_init=2, seed=1))
        nd = [t for t in traces if t.solver == "kmeans_nd"]
        assert len(nd) == 2  # one per restart
        assert all("inertia" in t.series for t in nd)
        assert {t.meta.get("restart") for t in nd} == {0, 1}

    def test_boundary_refine_records_moves(self):
        adj = _ring_adjacency(20)
        feats = np.linspace(0.0, 1.0, 20)
        labels = (np.arange(20) >= 10).astype(int)
        traces = self._solo_trace(
            lambda: boundary_refine(adj, feats, labels, max_sweeps=3)
        )
        br = [t for t in traces if t.solver == "boundary_refine"]
        assert len(br) == 1
        assert "moves" in br[0].series
        assert br[0].converged in (True, False)

    def test_hot_loop_bounded_per_span(self):
        # thousands of kappa-scan fits under one span must not record
        # past the cap: the first MAX attach, the rest only count
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("scan") as span:
                for __ in range(MAX_TRACES_PER_SPAN + 5):
                    kmeans_1d(values, 2)
        assert len(span.attrs["convergence"]) == MAX_TRACES_PER_SPAN
        assert span.attrs["convergence_dropped"] == 5

    @staticmethod
    def _attrs_after(fn, prefilled: int = 0):
        """Attrs of a span holding ``prefilled`` traces once ``fn`` ran in it."""
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("module2.scan") as span:
                for __ in range(prefilled):
                    attach_convergence(ConvergenceTrace("other"))
                fn()
        return span.attrs

    def test_scan_attaches_the_oracle_shift_series(self):
        # one batched fit per scan now; each kappa still files the
        # trace its own loop would, in kappa order, up to the cap
        values = np.random.default_rng(6).gamma(2.0, 0.02, size=300)
        kappas = range(2, 21)
        tracer = Tracer()
        with activate_tracer(tracer):
            with tracer.span("host") as host:
                scan_kappa(values, kappa_max=20)
        (scan_span,) = [c for c in host.children if c.name == "module2.scan"]
        oracle = self._attrs_after(
            lambda: [kmeans_1d_prefix_reference(values, k) for k in kappas]
        )
        assert scan_span.attrs["convergence"] == oracle["convergence"]
        assert len(oracle["convergence"]) == MAX_TRACES_PER_SPAN
        assert scan_span.attrs["convergence_dropped"] == oracle["convergence_dropped"]
        assert oracle["convergence_dropped"] == len(kappas) - MAX_TRACES_PER_SPAN

    @pytest.mark.parametrize("prefilled", [0, 5, MAX_TRACES_PER_SPAN])
    def test_batched_fits_respect_the_span_cap(self, prefilled):
        values = np.random.default_rng(7).normal(size=80)
        kappas = [2, 3, 9, 4, 12]
        batched = self._attrs_after(lambda: kmeans_1d_batch(values, kappas), prefilled)
        oracle = self._attrs_after(
            lambda: [kmeans_1d_prefix_reference(values, k) for k in kappas], prefilled
        )
        assert batched["convergence"] == oracle["convergence"]
        assert batched.get("convergence_dropped") == oracle.get("convergence_dropped")

    def test_solvers_silent_without_obs(self):
        # no tracer, no registry: solvers run and attach nothing
        rng = np.random.default_rng(2)
        kmeans_1d(rng.normal(size=30), 2)
        assert convergence_enabled() is False


# ----------------------------------------------------------------------
# eigensolver outcome record
class TestEigensolverOutcome:
    def test_dense_outcome_recorded(self):
        consume_eigensolver_outcome()
        adj = _ring_adjacency(12)
        smallest_eigenvectors(adj, 3)
        outcome = last_eigensolver_outcome()
        assert outcome["solver"] == "dense"
        assert outcome["converged"] is True
        assert outcome["fallback_reason"] is None
        assert outcome["residual"] < 1e-8
        assert outcome["n"] == 12 and outcome["k"] == 3

    def test_consume_clears(self):
        adj = _ring_adjacency(10)
        smallest_eigenvectors(adj, 2)
        assert consume_eigensolver_outcome() is not None
        assert last_eigensolver_outcome() is None
        assert consume_eigensolver_outcome() is None

    def test_eigensolve_span_attrs(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            smallest_eigenvectors(_ring_adjacency(14), 3)
        spans = [s for s in tracer.roots if s.name == "eigensolve"]
        assert len(spans) == 1
        assert spans[0].attrs["solver"] == "dense"
        assert spans[0].attrs["converged"] is True
        assert "residual" in spans[0].attrs

    def test_result_manifest_and_persistence_carry_outcome(self, tmp_path):
        network, densities = small_network(seed=7)
        network.set_densities(densities)
        framework = SpatialPartitioningFramework(k=4, scheme="ASG", seed=7)
        result = framework.partition(network)
        assert result.eigensolver is not None
        assert result.eigensolver["solver"] in ("dense", "arpack")
        assert result.manifest["eigensolver"] == result.eigensolver
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rebuilt.eigensolver == result.eigensolver

    def test_run_record_describes_embedding_solve(self):
        # M3 x 0.3 mines 3,004 supernodes: the embedding solve runs on
        # ARPACK, the meta-graph bipartitions after it on a few nodes
        network, densities = melbourne_like("M3", size_factor=0.3, seed=0)
        result = SpatialPartitioningFramework(k=6, scheme="ASG", seed=0).partition(
            network, densities
        )
        assert result.eigensolver["n"] == result.n_supernodes
        assert result.eigensolver["solver"] == "arpack"
        assert result.manifest["eigensolver"] == result.eigensolver

    def test_ncut_scheme_has_no_outcome(self):
        network, densities = small_network(seed=7)
        network.set_densities(densities)
        framework = SpatialPartitioningFramework(k=3, scheme="NG", seed=7)
        result = framework.partition(network)
        assert result.eigensolver is None
        assert "eigensolver" not in result.manifest


# ----------------------------------------------------------------------
# exports carry the telemetry
class TestExports:
    def test_convergence_survives_both_trace_exports(self):
        network, densities = small_network(seed=7)
        network.set_densities(densities)
        obs = ObsContext()
        framework = SpatialPartitioningFramework(
            k=4, scheme="ASG", seed=7, obs=obs
        )
        framework.partition(network)

        def harvest_tree(span, out):
            out.extend(traces_from_attrs(span.get("attrs")))
            for child in span.get("children", []):
                harvest_tree(child, out)

        nested = []
        for root in obs.tracer.to_dict()["spans"]:
            harvest_tree(root, nested)
        assert nested, "nested export lost the convergence traces"

        chrome = obs.tracer.to_chrome_trace()
        flat = []
        for event in chrome["traceEvents"]:
            if event.get("ph") == "X":
                flat.extend(traces_from_attrs(event.get("args")))
        assert len(flat) == len(nested)
        json.dumps(chrome)  # whole document stays JSON-clean
