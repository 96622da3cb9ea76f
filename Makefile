# Convenience targets for the repro library.

.PHONY: install test bench bench-full bench-hotpaths bench-obs bench-serving bench-compare serve-demo slo-demo trace-demo analyze-demo examples all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

bench-full:
	REPRO_FULL_SCALE=1 pytest benchmarks/ --benchmark-only -s

bench-hotpaths:
	pytest benchmarks/test_bench_hotpaths.py -s

bench-obs:
	pytest benchmarks/test_bench_obs_overhead.py -s

# Serving throughput/latency bench on the full-scale M2 network
# (writes BENCH_serving.json; the >=10k lookups/s + p99<10ms floors).
bench-serving:
	pytest benchmarks/test_bench_serving.py -s

# Gate the newest benchmark runs against benchmarks/results/history.jsonl
# (exit 1 on regression, 2 when the history is still too short).
bench-compare:
	python -m repro bench compare

# Boot the partition server on D1, fire a bounded loadgen burst at it,
# print the report, and shut the server down cleanly (SIGTERM).
serve-demo:
	@python -m repro serve D1 -k 4 --port 0 > serve-status.json & \
	SERVER_PID=$$!; \
	for i in $$(seq 1 50); do [ -s serve-status.json ] && break; sleep 0.2; done; \
	PORT=$$(python -c "import json; print(json.load(open('serve-status.json'))['port'])"); \
	echo "server on port $$PORT (serve-status.json)"; \
	python -m repro loadgen --port $$PORT --duration 2 --connections 2 --depth 16; \
	status=$$?; \
	kill -TERM $$SERVER_PID; wait $$SERVER_PID; \
	exit $$status

# SLO burn demo: a deliberately slow server (50 ms injected against a
# 10 ms latency objective) burns its error budget under load, and
# `repro obs slo` exits 1 — the scriptable gate CI uses.
slo-demo:
	@python -m repro serve D1 -k 4 --port 0 --slo-latency-ms 10 \
		--inject-slow-ms 50 > slo-status.json & \
	SERVER_PID=$$!; \
	for i in $$(seq 1 50); do [ -s slo-status.json ] && break; sleep 0.2; done; \
	PORT=$$(python -c "import json; print(json.load(open('slo-status.json'))['port'])"); \
	echo "server on port $$PORT (slo-status.json)"; \
	python -m repro loadgen --port $$PORT --duration 2 --connections 2 --depth 4; \
	python -m repro obs slo --port $$PORT; \
	slo_status=$$?; \
	kill -TERM $$SERVER_PID; wait $$SERVER_PID; \
	echo "obs slo exit code: $$slo_status (1 = burning, as intended)"; \
	[ $$slo_status -eq 1 ]

# Trace analytics on the trace-demo artifact: critical path and
# ranked optimization targets.
analyze-demo: trace-demo
	python -m repro obs analyze trace.json

# Observed demo run: trace.json opens in https://ui.perfetto.dev,
# metrics.json holds the counters + run manifest.
trace-demo:
	python -m repro --log-level info partition D1 -k 6 --json \
		--trace-out trace.json --metrics-out metrics.json > result.json
	@echo "wrote result.json, trace.json, metrics.json"

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

all: test bench
