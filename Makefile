# Developer entry points.
#
# `make verify` is the pre-commit gate: the tier-1 test suite plus a fast
# smoke pass over the engine benches (benchmark timing disabled — each
# bench body runs once as a plain test). The `timeout` ceilings are
# deliberately generous: they catch hangs and order-of-magnitude
# regressions, not scheduler jitter.

PYTHON ?= python
PYTEST  = env PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test bench bench-check lint verify chaos-smoke chaos-recover-smoke shard-smoke serve-smoke kvserve-smoke explore-smoke conformance coverage reach

test:
	$(PYTEST) -x -q

bench:
	$(PYTEST) benchmarks/bench_engine.py benchmarks/bench_runner.py \
		benchmarks/bench_netstack.py benchmarks/bench_fluid_cache.py \
		benchmarks/bench_trace.py benchmarks/bench_sharded_des.py \
		benchmarks/bench_recovery.py benchmarks/bench_kvserve.py \
		benchmarks/bench_explore.py -q

# Append fresh samples to BENCH_results.json, then fail if any tracked
# bench got >25% slower than its previous sample (2ms jitter floor).
bench-check: bench
	$(PYTHON) benchmarks/check_bench.py

# Static checks. Guarded: the lint gate is CI's job (ruff is installed
# there); a container without ruff skips it instead of failing.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi

verify:
	timeout 600 $(PYTEST) -x -q
	timeout 120 $(PYTEST) benchmarks/bench_engine.py -q --benchmark-disable
	@echo "verify: OK"

# The cross-backend/cross-platform conformance sweeps (tier-2): excluded
# from the default suite by the pytest marker filter, run here explicitly.
conformance:
	timeout 900 $(PYTEST) -m conformance -q

# Informational line coverage. Guarded like `lint`: pytest-cov is a CI
# install; a container without it skips instead of failing.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTEST) -q --cov=repro --cov-report=term; \
	else \
		echo "coverage: pytest-cov not installed, skipping"; \
	fi

# A quick end-to-end fault sweep on both platforms: exercises the fault
# subsystem, the hardened runner, and strict invariant checking in one go.
chaos-smoke:
	timeout 120 env PYTHONPATH=src $(PYTHON) -m repro chaos --platform all \
		--transactions 100 --timeout 60 --retries 1
	@echo "chaos-smoke: OK"

# The failover comparison end to end: a permanent cross-die link
# failure with recovery off vs on, on both backends — detection, credit
# reclamation, retransmission, and failover in one CLI run.
chaos-recover-smoke:
	timeout 180 env PYTHONPATH=src $(PYTHON) -m repro chaos --platform all \
		--severity 0 --transactions 50 --recover --no-cache
	@echo "chaos-recover-smoke: OK"

# A quick serial-vs-sharded engine comparison on the largest cell: runs
# both engines end to end (window protocol, boundary messages, batched
# recurrences) and prints the agreement table.
shard-smoke:
	timeout 120 env PYTHONPATH=src $(PYTHON) -m repro sharded \
		--platform 9634 --transactions 100 --no-cache
	@echo "shard-smoke: OK"

# The persistent simulation service end to end: `repro serve` as a real
# daemon, a netstack batch and a Table 2 column each submitted twice
# (the resubmission must be >=90% warm-cache hits and byte-identical to
# the --local fallback and the direct subcommand), then a
# protocol-driven shutdown that must leave nothing behind.
serve-smoke:
	timeout 180 env PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py
	@echo "serve-smoke: OK"

# The hybrid serving engine end to end: a tiny open-loop sweep over
# every (value tier, background) arm, asserting the tail ordering the
# paper's motivation leans on (DRAM < CXL; QoS recovers the hog's
# victim).
kvserve-smoke:
	timeout 120 env PYTHONPATH=src $(PYTHON) scripts/kvserve_smoke.py
	@echo "kvserve-smoke: OK"

# The design-space sweep end to end: every catalog topology x routing
# policy x workload through the hardened runner, scored and rendered —
# the generator, the routed fabric, and the adaptive DES mesh in one run.
explore-smoke:
	timeout 120 env PYTHONPATH=src $(PYTHON) -m repro explore --no-cache
	@echo "explore-smoke: OK"

# Which src functions nothing but the tests enters: runs the CLI golden
# argv, every example and script, each e2e workload (--quick),
# `repro all --quality full` and the submit/serve/jobs/cache/--csv/--out
# doors under a call profiler in every process, then lists the unentered
# functions with line counts and marks those only tests name (or that
# scripts/reach_keep.txt keeps). Fails when a function outside the
# keep-list is unentered or a keep entry names no function. Takes
# minutes, so it is not part of `verify` (CI's `reach` job runs it).
reach:
	timeout 1800 env PYTHONPATH=src $(PYTHON) scripts/reach.py
