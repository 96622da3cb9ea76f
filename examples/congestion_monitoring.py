"""Congestion monitoring: the full operations workflow, served live.

A traffic management centre's loop, end to end:

1. bootstrap a global partitioning of the city and serve it with a
   ``PartitionServer``; ``attach_repartitioner`` publishes every
   repartitioner step as a new serving epoch;
2. as congestion evolves, refresh only the regions that changed
   (incremental/distributed repartitioning — paper Section 6.4); the
   updates record their latency histogram and churn counters into the
   server's metrics registry;
3. per snapshot, print the region reports (level of service per
   region) and the boundary sharpness (where perimeter control would
   meter traffic);
4. scrape the server's ``/metrics`` (validated with the package's own
   strict Prometheus parser) and ``/quality`` over HTTP, exactly as a
   Prometheus server and a control-room dashboard would;
5. export the final state as SVG + GeoJSON for the control-room map.

Run:  python examples/congestion_monitoring.py [output-dir]
"""

from __future__ import annotations

import json
import sys
import urllib.request
from pathlib import Path

from repro.analysis.boundary import boundary_sharpness
from repro.analysis.stats import partition_report
from repro.datasets.small import small_network_series
from repro.network.dual import build_road_graph
from repro.network.geojson import network_to_geojson, save_geojson
from repro.obs.export import parse_prometheus
from repro.obs.metrics import use_registry
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.serve import PartitionServer, SnapshotStore, attach_repartitioner
from repro.viz.svg import render_partitions, save_svg

K = 5
SNAPSHOTS = (30, 60, 90, 110)
SEED = 7


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode("utf-8")


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    network, series = small_network_series(seed=SEED)
    graph = build_road_graph(network)

    inc = IncrementalRepartitioner(
        graph, k=K, staleness_threshold=0.2, seed=SEED
    )
    store = SnapshotStore()
    attach_repartitioner(store, inc, network=network)
    server = PartitionServer(store)
    with use_registry(server.registry):
        inc.bootstrap(series[SNAPSHOTS[0]])  # publishes epoch 1
    print(f"bootstrapped {K} regions at t={SNAPSHOTS[0]}")

    with server.start_background() as handle:
        print(f"serving on {handle.url}\n")
        labels = inc.labels
        for t in SNAPSHOTS[1:]:
            densities = series[t]
            with use_registry(server.registry):
                report = inc.update(densities)
            labels = report.labels
            print(f"t={t}: refreshed regions {report.refreshed or 'none'}, "
                  f"kept {len(report.kept)}, "
                  f"{report.n_relabelled} segments relabelled "
                  f"in {report.duration_s * 1e3:.1f} ms")
            for region in partition_report(network, labels, densities):
                print(f"   {region}")
            sharp = boundary_sharpness(densities, labels, graph.adjacency)
            worst = max(sharp.items(), key=lambda kv: kv[1])
            print(f"   sharpest boundary: regions {worst[0]} "
                  f"(density step {worst[1]:.4f} veh/m)\n")

        samples, families = parse_prometheus(_get(handle.url + "/metrics"))
        value = {s.name: s.value for s in samples if not s.labels}
        print(f"scraped {len(samples)} samples in {len(families)} families: "
              f"epoch {int(value['repro_serve_epoch'])}, "
              f"{int(value['repro_incremental_update_latency_s_count'])} "
              f"updates observed")
        quality = json.loads(_get(handle.url + "/quality"))
        print(f"epoch {quality['epoch']} quality: ANS {quality['ans']:.4f}, "
              f"GDBI {quality['gdbi']:.4f}")
    store.close()

    svg_path = out_dir / "monitoring_final.svg"
    save_svg(render_partitions(network, labels, title="final regions"), svg_path)
    geojson_path = out_dir / "monitoring_final.geojson"
    save_geojson(
        network_to_geojson(network, labels=labels, densities=series[SNAPSHOTS[-1]]),
        geojson_path,
    )
    print(f"exported {svg_path} and {geojson_path}")


if __name__ == "__main__":
    main()
