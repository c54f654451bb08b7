# Developer entry points (documentation; everything is plain pytest/python).

# The package lives under src/ and is not installed in dev checkouts;
# every target needs it importable (tier-1 verify sets this itself, but
# bench/check/report/examples used to fail from a clean checkout).
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)
export PYTHONPATH

.PHONY: install test test-fast bench bench-engine bench-serve bench-serve-shard bench-plan serve-shard serve-shard-smoke serve-smoke plan-smoke warmup machine-zoo report examples docs-check check clean

install:
	pip install -e .

test: docs-check
	pytest tests/

# Lint the documentation: relative Markdown links must resolve and every
# CLI flag must be mentioned in README.md or docs/.
docs-check:
	python tools/check_docs.py

# Regenerate every exhibit under full invariant checking (repro.checks):
# run-, sweep- and exhibit-scope physics audits; non-zero exit on any
# violation.  See docs/TESTING.md for the invariant catalogue.
check:
	python -m repro check

# Tier-1 suite through the process-pool executor, plus a no-cacheprovider
# smoke job (catches accidental reliance on pytest's cache plugin).
test-fast:
	REPRO_JOBS=4 REPRO_EXECUTOR=processes pytest tests/ -x -q
	pytest tests/test_package.py tests/core/test_executor.py -q -p no:cacheprovider

bench:
	pytest benchmarks/ --benchmark-only

# Engine perf trajectory: scalar vs columnar batch across the caching
# hierarchy (cold/warm/hot); regenerates BENCH_engine.json at the repo
# root.  Run after changes to repro.engine.batch or the table cache
# (docs/ENGINE.md) and commit the refreshed file.
bench-engine:
	pytest benchmarks/bench_perf_engine.py --benchmark-only

# Serving-layer throughput: coalesced vs naive one-request-one-eval
# (regenerates BENCH_serve.json; see docs/SERVING.md).
bench-serve:
	python -m repro bench serve

# Sharded-deployment scaling curve: 1 -> 2 -> 4 process replicas under
# 1024-client closed-loop overload; merges a `sharded` section into
# BENCH_serve.json (goodput / p99 / retry curves + identity audit); see
# docs/SERVING.md, "The sharded benchmark".
bench-serve-shard:
	python -m repro bench serve --replicas 4

# Capacity-planner latency vs fleet size (10/100/1000 synthetic mix
# items; regenerates BENCH_plan.json; see docs/PLANNING.md).
bench-plan:
	python -m repro bench plan

# The sharding verification layer: hash-ring properties, router/cache
# behaviour, fault injection (kill/stall/slow/drain), loadgen error
# paths.
serve-shard:
	pytest tests/serve/ -q

# CI smoke for the sharded deployment: 3 process replicas behind a
# prewarmed shared table cache, a reduced closed-loop load, one replica
# killed mid-run; >= 90% success, bit-identity, health view
# (tools/serve_shard_smoke.py).
serve-shard-smoke:
	python tools/serve_shard_smoke.py

# CI smoke for the prediction service: 200 concurrent queries, p99
# bound, bit-identity and invariant audit (tools/serve_smoke.py).
serve-smoke:
	python tools/serve_smoke.py

# CI smoke for the capacity planner: prewarm the table cache, solve a
# 3-workload mix on knl7210 + xeonmax9480 through POST /v1/plan, assert
# feasibility, invariant compliance, CLI/service identity and zero
# table builds (tools/plan_smoke.py; docs/PLANNING.md).
plan-smoke:
	python tools/plan_smoke.py

# Deploy-time table prewarm: build the batch-engine model tables for
# every registered machine x the paper config trio into the shared
# persistent table cache (TABLE_CACHE, default .cache/tables), so fresh
# services and CLI runs load tables instead of rebuilding them
# (docs/ENGINE.md, "Prewarming").  `repro serve --prewarm` does the
# same inline at boot; tools/serve_shard_smoke.py exercises the same
# prewarm path before its replicas come up.
TABLE_CACHE ?= .cache/tables
warmup:
	python -m repro warmup --table-cache $(TABLE_CACHE)

# Cross-machine conformance: the full invariant catalogue on every
# registered machine, spec round-trip/rejection properties, KNL
# bit-identity vs the pre-registry presets, and machine-isolation
# regressions (docs/MACHINES.md).
machine-zoo:
	pytest tests/machine/ -q

report:
	python -m repro report

examples:
	@for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null && echo OK; done

clean:
	rm -rf benchmarks/output .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
