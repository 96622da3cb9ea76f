"""Open-loop lookup traffic against ``repro serve``: the ``serve`` workload.

Setup boots ``python -m repro serve M2 -k 16`` as a subprocess, with its
drift updater publishing a new epoch every ``UPDATE_INTERVAL_S`` while
traffic runs (writes beside reads; each publish rebuilds the segment
index for all of M2). One client process drives it over
``CONNECTIONS`` pipelined keep-alive connections. First comes a step at
the nominal rate, which gives the latency of a lightly loaded server,
by request kind. The traced run then adds a capacity search (capacity
moves by 25-40% between runs on a 2-core virtual machine, so the
untraced run does not gate it) in steps of ``STEP_S``: from
``START_RPS`` the rate grows by ``GROWTH`` until one fails (or shrinks
until one holds), then ``BISECT_STEPS`` geometric bisections narrow the
gap between the highest rate that held and the lowest that failed; a
failed step is sent once more before its rate counts as failed.
``max_rps`` is the achieved rate of the highest step that passed. The
client's and the server's CPU use are recorded per step, so a report
says which side ran out first (on a 2-core host the server saturates
its core first).

Request bodies come from one pool drawn from the seed in setup,
outside the timed region; steps take consecutive slices of it.

Checks on every response: status 200, a JSON body of the expected
shape, region ids in [0, k) for the epoch's k, the requested segment
echoed back, and one region per (segment, epoch) across all answers.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import loadgen
from inputs import NETWORK_SEED

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

DATASET = "M2"
K = 16
UPDATE_INTERVAL_S = 1.0
CONNECTIONS = 2

# Traffic shape. We know of no public trace of lookups against a road
# partition service, so the shape is an assumption, and latency is
# reported per request kind so that a change of mix cannot move it:
# - kinds: 80% single-segment lookups, 10% batch lookups of BATCH ids,
#   10% point (x, y) lookups;
# - BATCH is the batch size of the program's own ``repro loadgen --mode
#   batch`` default;
# - segment ids are half skewed, half uniform. The skew is Zipf-like
#   with exponent ZIPF_ALPHA over a shuffled id order, borrowed from web
#   request popularity (Breslau et al., "Web Caching and Zipf-like
#   Distributions", INFOCOM 1999, measured 0.64-0.83), not from a road
#   lookup trace;
# - the nominal rate is a light load, about a tenth of the measured
#   capacity; the capacity search sets every other rate. At 500 req/s
#   both processes idled between requests, and the p50 was mostly the
#   virtual machine's wake-up latency, which moved between 0.85 and
#   1.4 ms from run to run.
KINDS = ("single", "batch", "point")
MIX = (0.8, 0.1, 0.1)
BATCH = 64
SKEWED_SHARE = 0.5
ZIPF_ALPHA = 0.8
NOMINAL_RPS = 4000
NOMINAL_SHARE = 0.1  # of --seconds

# Saturated bursts, one per request kind, give the gated time: every
# request of a burst is due at once, so the server works flat out, and
# a request's time is the burst's wall time over its size. Open-loop
# latency at the nominal rate is mostly the virtual machine's wake-up
# latency, which moved by a factor of three between runs of the same
# code, so it stays in the report. Medians over parts of a burst are no
# steadier: answers arrive in groups of hundreds (one per socket read),
# so parts of a few thousand answers took 4 or 120 us a request. Sizes
# give bursts of about 1 s.
BURSTS = {"single": 100000, "batch": 10000, "point": 20000}
BURST_RPS = 1e9
BURST_DRAIN_S = 60.0

# capacity search: rates grow (or shrink) by GROWTH from START_RPS until
# one fails (holds), then BISECT_STEPS bisections narrow the bracket to
# GROWTH ** (1 / 2 ** BISECT_STEPS), about 5%
START_RPS = 32000
GROWTH = 1.5
MIN_RPS = 1000
MAX_RPS = 1_024_000
BISECT_STEPS = 3
STEP_S = 1.0
# p99 from each request's due time; past the knee the backlog and the
# p99 grow by hundreds of ms within one step, while below it the
# generator's own send lateness alone moves p99 by 2-25 ms from run to
# run on a 2-core host, so a 10 ms limit would pass or fail by chance
LATENCY_LIMIT_MS = 100.0
# the side whose CPU share of a failed step reaches this ran out
SATURATED_CPU = 0.9
POOL = 1 << 17
DRAIN_S = 5.0
BOOT_TIMEOUT_S = 150.0
WARMUP_RPS = 1000


class Server:
    """A ``repro serve`` subprocess; ``stop`` ends and reaps it."""

    def __init__(self, dataset: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        OUT.mkdir(exist_ok=True)
        self.log = open(OUT / "serve-stderr.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", dataset, "-k", str(K), "--seed", str(NETWORK_SEED),
             "--port", "0", "--updates", "1000000", "--update-interval", str(UPDATE_INTERVAL_S)],
            stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=str(ROOT))
        self.status = self._read_status()
        self.port = int(self.status["port"])

    def _read_status(self) -> Dict:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, __, __ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                return json.loads(line)
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not report a status line")

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as resp:
            return resp.read()

    def cpu_s(self) -> float:
        """CPU seconds of the server's threads so far (the scheduler's
        nanosecond run time, not the 10 ms ticks of /proc/<pid>/stat)."""
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _pool(rng: np.random.Generator, n: int, n_segments: int, bbox) -> Dict:
    """``n`` requests: payload bytes, kind and what each asked for."""
    order = rng.permutation(n_segments)
    zipf_cdf = np.cumsum(np.arange(1, n_segments + 1, dtype=float) ** -ZIPF_ALPHA)
    zipf_cdf /= zipf_cdf[-1]
    kinds = rng.choice(len(KINDS), size=n, p=MIX)
    sizes = np.select([kinds == 0, kinds == 1], [1, BATCH], 0)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    skewed = np.repeat(rng.random(n) < SKEWED_SHARE, sizes)
    ids = np.where(skewed,
                   order[np.minimum(np.searchsorted(zipf_cdf, rng.random(starts[-1])), n_segments - 1)],
                   rng.integers(0, n_segments, starts[-1])).tolist()
    starts = starts.tolist()
    xs = rng.uniform(bbox[0], bbox[2], n)
    ys = rng.uniform(bbox[1], bbox[3], n)
    payloads, asks = [], []
    for i, kind in enumerate(kinds.tolist()):
        if kind == 0:
            seg = ids[starts[i]]
            payloads.append(b"GET /lookup?segment=%d HTTP/1.1\r\nHost: bench\r\n\r\n" % seg)
            asks.append(seg)
        elif kind == 1:
            segs = ids[starts[i]:starts[i + 1]]
            payloads.append(b"GET /batch?segments=%s HTTP/1.1\r\nHost: bench\r\n\r\n"
                            % ",".join(map(str, segs)).encode())
            asks.append(segs)
        else:
            payloads.append(b"GET /lookup?x=%.3f&y=%.3f HTTP/1.1\r\nHost: bench\r\n\r\n"
                            % (xs[i], ys[i]))
            asks.append(None)
    return {"payloads": payloads, "kinds": kinds, "asks": asks, "offset": 0}


def _take(pool: Dict, n: int, kind: Optional[int] = None):
    """The next ``n`` requests of the pool (only those of ``kind`` if
    given), wrapping round."""
    if kind is not None:
        of_kind = np.flatnonzero(pool["kinds"] == kind)
        idx = of_kind[np.arange(n) % len(of_kind)].tolist()
        return ([pool["payloads"][i] for i in idx], pool["kinds"][idx], [pool["asks"][i] for i in idx])
    idx = ((pool["offset"] + np.arange(n)) % len(pool["payloads"])).tolist()
    pool["offset"] = (pool["offset"] + n) % len(pool["payloads"])
    return ([pool["payloads"][i] for i in idx], pool["kinds"][idx], [pool["asks"][i] for i in idx])


def setup(workload: str, seed: int, toy: bool, seconds: float) -> Dict:
    server = Server("M1-small" if toy else DATASET)
    try:
        k = int(server.status["k"])
        boxes = [json.loads(server.get(f"/region/{r}"))["bbox"] for r in range(k)]
    except Exception:
        server.stop()
        raise
    bbox = (min(b["x_min"] for b in boxes), min(b["y_min"] for b in boxes),
            max(b["x_max"] for b in boxes), max(b["y_max"] for b in boxes))
    n_segments = int(server.status["n_segments"])
    pool = _pool(np.random.default_rng(seed), POOL // 32 if toy else POOL, n_segments, bbox)
    return {"server": server, "seed": seed, "toy": toy, "pool": pool, "n_segments": n_segments,
            "regions": {}}


def close(state: Dict) -> None:
    state["server"].stop()


def warmup(state: Dict) -> None:
    """A short burst so connections, caches and the first epochs settle."""
    async def drive():
        conns = await loadgen.open_connections(state["server"].port, CONNECTIONS)
        try:
            await _step(state, conns, WARMUP_RPS, 1.0)
        finally:
            await loadgen.close_connections(conns)

    asyncio.run(drive())


def _metrics_sample(server: Server) -> Dict[str, float]:
    from repro.obs.export import parse_prometheus

    samples, __ = parse_prometheus(server.get("/metrics").decode())
    out: Dict[str, float] = {}
    for sample in samples:
        name, labels, value = sample.name, dict(sample.labels), float(sample.value)
        if name == "repro_serve_requests_total":
            out["requests"] = out.get("requests", 0.0) + value
        elif name == "repro_serve_responses_total" and labels.get("status") != "200":
            out["non200"] = out.get("non200", 0.0) + value
        elif name == "repro_serve_group_size_sum":
            out["group_sum"] = value
        elif name == "repro_serve_group_size_count":
            out["group_count"] = value
        elif name == "repro_serve_request_latency_s_bucket":
            out[f"bucket:{labels['le']}"] = value
        elif name == "repro_serve_epoch":
            out["epoch"] = value
    return out


def _hist_p99_ms(before: Dict, after: Dict) -> float:
    """p99 upper bound from the server's latency histogram delta."""
    edges = sorted((float(k[7:]), after[k] - before.get(k, 0.0))
                   for k in after if k.startswith("bucket:"))
    if not edges or edges[-1][1] <= 0:
        return 0.0
    total = edges[-1][1]
    for le, count in edges:
        if count >= 0.99 * total:
            return le * 1e3
    return edges[-1][0] * 1e3


def _check(res: loadgen.StepResult, kinds, asks, k_max: int, n_segments: int,
           tables: Dict[int, np.ndarray]) -> Tuple[List[str], int]:
    """Messages for every invalid answer, and how many requests failed
    (unanswered or invalid). ``tables`` maps an epoch to the region each
    segment had in it, across steps."""
    errors = list(res.errors)
    kinds = kinds.tolist()
    bad = set(i for i, d in enumerate(res.done) if d is None)
    epochs: List[int] = []
    segs: List[int] = []
    regions: List[int] = []
    owners: List[int] = []
    for i, status in enumerate(res.status):
        if res.done[i] is None:
            continue
        if status != 200:
            bad.add(i)
            errors.append(f"HTTP {status}: {res.body[i][:80]!r}")
            continue
        try:
            body = json.loads(res.body[i])
            epoch = int(body["epoch"])
            want = asks[i]
            if kinds[i] == 1:
                if len(body["regions"]) != len(want):
                    raise ValueError("batch answer has the wrong length")
                segs.extend(want)
                regions.extend(body["regions"])
                n = len(want)
            else:
                if kinds[i] == 0 and body["segment"] != want:
                    raise ValueError(f"asked segment {want}, got {body['segment']}")
                segs.append(body["segment"])
                regions.append(body["region"])
                n = 1
        except (ValueError, KeyError, TypeError) as exc:
            bad.add(i)
            errors.append(f"bad body {res.body[i][:80]!r}: {exc}")
            continue
        epochs.extend([epoch] * n)
        owners.extend([i] * n)
    try:
        s, r = np.asarray(segs, dtype=np.int64), np.asarray(regions, dtype=np.int64)
    except (ValueError, TypeError) as exc:
        errors.append(f"non-integer segment or region ids: {exc}")
        return errors, len(res.done)
    e, o = np.asarray(epochs, dtype=np.int64), np.asarray(owners, dtype=np.int64)
    out_of_range = (r < 0) | (r >= k_max) | (s < 0) | (s >= n_segments)
    if out_of_range.any():
        bad.update(o[out_of_range].tolist())
        errors.append(f"{int(out_of_range.sum())} answers outside [0, {k_max}) regions "
                      f"or [0, {n_segments}) segments")
    s, r, e, o = s[~out_of_range], r[~out_of_range], e[~out_of_range], o[~out_of_range]
    for epoch in np.unique(e).tolist():
        m = np.flatnonzero(e == epoch)
        table = tables.setdefault(epoch, np.full(n_segments, -1, dtype=np.int32))
        ss, rr = s[m], r[m]
        first = np.full(n_segments, -1, dtype=np.int32)
        first[ss[::-1]] = rr[::-1]  # the first answer for each segment wins
        ref = np.where(table[ss] >= 0, table[ss], first[ss])
        conflict = rr != ref
        if conflict.any():
            bad.update(o[m][conflict].tolist())
            errors.append(f"{int(conflict.sum())} segments have two regions in epoch {epoch}")
        table[ss] = ref
    return errors, len(bad)


async def _step(state: Dict, conns, rate: float, duration: float) -> Dict:
    """Send one step of the pool at ``rate`` for ``duration`` seconds and check it."""
    server: Server = state["server"]
    payloads, kinds, asks = _take(state["pool"], max(1, int(rate * duration)))
    before = _metrics_sample(server)
    cpu_client, cpu_server, wall = time.process_time(), server.cpu_s(), time.perf_counter()
    res = await loadgen.run_step(conns, payloads, rate, DRAIN_S)
    wall = time.perf_counter() - wall
    cpu_client, cpu_server = time.process_time() - cpu_client, server.cpu_s() - cpu_server
    after = _metrics_sample(server)
    k_now = int(json.loads(server.get("/epoch"))["k"])
    errors, failed = _check(res, kinds, asks, k_now, state["n_segments"], state["regions"])
    stats = loadgen.step_stats(res, rate)
    for code, kind in enumerate(KINDS):
        lat = [(res.done[i] - res.due[i]) * 1e3 for i in np.flatnonzero(kinds == code).tolist()
               if res.done[i] is not None]
        stats[f"p50_ms.{kind}"] = float(np.percentile(lat, 50)) if lat else float("inf")
    stats.update({
        "rate": rate,
        "server_requests": after.get("requests", 0) - before.get("requests", 0),
        "server_non200": after.get("non200", 0) - before.get("non200", 0),
        "server_p99_ms": _hist_p99_ms(before, after),
        "server_cpu_s": cpu_server,
        "group_size_mean": ((after.get("group_sum", 0) - before.get("group_sum", 0))
                            / max(1.0, after.get("group_count", 0) - before.get("group_count", 0))),
        "epochs": after.get("epoch", 0) - before.get("epoch", 0),
        "client_cpu_frac": cpu_client / wall,
        "server_cpu_frac": cpu_server / wall,
        "errors": len(errors),
        "failed": failed,
        "error_messages": errors,
    })
    stats["passed"] = (stats["p99_ms"] <= LATENCY_LIMIT_MS and stats["sent_all"]
                       and not stats["backlog_growing"] and not errors)
    return stats


async def _burst(state: Dict, conns, kind: int, n: int) -> Dict:
    """``n`` requests of ``kind``, all due at once; checked like a step."""
    server: Server = state["server"]
    payloads, kinds, asks = _take(state["pool"], n, kind)
    cpu_server = server.cpu_s()
    res = await loadgen.run_step(conns, payloads, BURST_RPS, BURST_DRAIN_S)
    cpu_server = server.cpu_s() - cpu_server
    errors, failed = _check(res, kinds, asks, int(json.loads(server.get("/epoch"))["k"]),
                            state["n_segments"], state["regions"])
    wall = max((d for d in res.done if d is not None), default=float("inf")) - res.due[0]
    return {"kind": KINDS[kind], "requests": n, "failed": failed, "error_messages": errors,
            "wall_s": wall, "request_s": wall / n, "server_cpu_s": cpu_server}


async def _holds(state: Dict, conns, rate: float, step_s: float, ladder: List[Dict]) -> bool:
    """Whether ``rate`` passes; a failed step is sent once more, so that
    one transient stall (a publish, a stolen core) does not decide."""
    attempts = []
    for __ in range(2):
        attempts.append(await _step(state, conns, rate, step_s))
        if attempts[-1]["passed"]:
            break
    ladder.extend(attempts)
    if attempts[-1]["passed"]:
        return True
    for step in attempts:
        step["rate_failed"] = True
    return False


async def _search(state: Dict, conns, step_s: float) -> List[Dict]:
    """Bracket the highest rate that holds between one that holds and one
    that fails, then bisect the bracket geometrically."""
    ladder: List[Dict] = []
    rate, passed, failed = float(START_RPS), None, None
    while passed is None or failed is None:
        if await _holds(state, conns, rate, step_s, ladder):
            passed = rate
            if failed is None:
                rate *= GROWTH
        else:
            failed = rate
            if passed is None:
                rate /= GROWTH
        if not MIN_RPS <= rate <= MAX_RPS:
            break
    if passed is not None and failed is not None:
        for __ in range(BISECT_STEPS):
            rate = (passed * failed) ** 0.5
            if await _holds(state, conns, rate, step_s, ladder):
                passed = rate
            else:
                failed = rate
    return ladder


def _run(state: Dict, seconds: float, search: bool) -> Tuple[Dict, Dict]:
    """The nominal step, then the bursts, or the capacity search if
    ``search``; returns the result (counts, errors, report details) and
    the steps that metrics read."""
    async def drive():
        conns = await loadgen.open_connections(state["server"].port, CONNECTIONS)
        try:
            nominal = await _step(state, conns, NOMINAL_RPS, NOMINAL_SHARE * seconds)
            if not search:
                scale = 1 / 32 if state["toy"] else 1
                return nominal, [await _burst(state, conns, code, max(1, int(BURSTS[kind] * scale)))
                                 for code, kind in enumerate(KINDS)]
            return nominal, await _search(state, conns, 0.2 if state["toy"] else STEP_S)
        finally:
            await loadgen.close_connections(conns)

    nominal, ladder = asyncio.run(drive())
    steps = [nominal] + ladder
    errors = [f"{s.get('kind') or round(s['rate'])}: {e}" for s in steps for e in s.pop("error_messages")]
    result = {"attempted": sum(s["requests"] for s in steps),
              "failed": sum(s["failed"] for s in steps), "errors": errors,
              "details": {"nominal": nominal}}
    if not search:
        result["details"]["bursts"] = ladder
        return result, {}
    passing = [s for s in ladder if s["passed"]]
    peak = max(passing, key=lambda s: s["rate"]) if passing else ladder[0]
    failing = [s for s in ladder if s.get("rate_failed")]
    fail = failing[0] if failing else peak
    if not failing:
        limited_by = "rate cap"
    elif fail["server_cpu_frac"] >= SATURATED_CPU:
        limited_by = "server"
    elif fail["client_cpu_frac"] >= SATURATED_CPU:
        limited_by = "client"
    else:
        limited_by = "neither side used a whole core"
    max_rps = peak["achieved_rps"] if passing else 0.0
    result["details"].update({"ladder": ladder, "limited_by": limited_by, "max_rps": max_rps})
    return result, {"nominal": nominal, "peak": peak, "fail": fail, "steps": steps,
                    "max_rps": max_rps}


def untraced(state: Dict, seconds: float) -> Dict:
    """The nominal step and the bursts (capacity moves by 25-40% between
    runs on a 2-core virtual machine, so only the traced run searches
    for it). A case is a request kind, timed by its burst; ``cpu_s`` is
    the server's CPU time over the bursts, its updater's publishes
    included; ``quality.ans`` is the server's own score of the epoch it
    serves afterwards."""
    result, __ = _run(state, seconds, search=False)
    bursts = result["details"]["bursts"]
    server: Server = state["server"]
    quality = json.loads(server.get("/quality"))
    result["details"]["quality"] = quality
    result["metrics"] = {
        "op_s.case_median_sum": sum(b["request_s"] for b in bursts),
        "cpu_s": sum(b["server_cpu_s"] for b in bursts),
        "quality.ans": float(quality["ans"]),
        "peak_rss_mb": server.peak_rss_mb(),
    }
    return result


def traced(state: Dict, seconds: float) -> Dict:
    """The same traffic; per-layer numbers from /metrics deltas, the
    client and CPU use. ``.peak`` is the highest passing step of the
    capacity search, ``.fail`` the first failing one."""
    result, run = _run(state, seconds, search=True)
    nominal, peak, fail, steps = run["nominal"], run["peak"], run["fail"], run["steps"]
    result["metrics"] = {
        **{f"serve.lookup_ms.p50.{kind}": nominal[f"p50_ms.{kind}"] for kind in KINDS},
        "serve.max_rps": run["max_rps"],
        "serve.lookup_ms.p99": nominal["p99_ms"],
        "serve.lookup_ms.p99.peak": peak["p99_ms"],
        "serve.requests": float(sum(s["server_requests"] for s in steps)),
        "serve.responses.non200": float(sum(s["server_non200"] for s in steps)),
        "serve.server_latency_ms.p99": nominal["server_p99_ms"],
        "serve.server_latency_ms.p99.peak": peak["server_p99_ms"],
        "serve.group_size.mean": nominal["group_size_mean"],
        "serve.group_size.mean.peak": peak["group_size_mean"],
        "serve.gen_late_ms.p99": nominal["late_p99_ms"],
        "serve.gen_late_ms.p99.peak": peak["late_p99_ms"],
        "serve.backlog_max": float(nominal["backlog_max"]),
        "serve.backlog_max.peak": float(peak["backlog_max"]),
        "serve.epochs": float(sum(s["epochs"] for s in steps)),
        "serve.server_cpu_frac.fail": fail["server_cpu_frac"],
        "serve.client_cpu_frac.fail": fail["client_cpu_frac"],
    }
    return result
