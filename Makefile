# Convenience targets; everything honors an activated virtualenv.
# PYTHONPATH=src keeps the targets usable without an editable install.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-slow docs-check lint certify bench bench-smoke bench-compile serve-smoke trace-table1 all-checks

CERTIFY_PROBLEMS := vertex-cover max-cut clique-cover map-coloring exact-cover set-cover redundant-cover 3sat

test:            ## tier-1 test suite (excludes @slow, per pyproject addopts)
	$(PYTHON) -m pytest -x -q

test-slow:       ## just the long-running end-to-end demos
	$(PYTHON) -m pytest -q -m slow

docs-check:      ## execute every runnable code block in README.md and docs/
	$(PYTHON) -m pytest tests/test_docs_examples.py -q

lint:            ## static analysis: codebase hygiene checks + program-linter tests + cache-key probe
	$(PYTHON) -m pytest tests/test_codebase.py tests/test_analysis_program.py tests/test_cache_keys.py -q

certify:         ## prove hard dominance + soft fidelity for every problem family
	@for p in $(CERTIFY_PROBLEMS); do \
		echo "== certify $$p =="; \
		$(PYTHON) -m repro certify $$p || exit $$?; \
	done

bench:           ## every gate and ablation bench (the paper's artifacts: python -m repro all)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-smoke:     ## tiny-budget benches: portfolio runtime + compiler pipeline + certification + sparse-kernel gate + solve service
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_runtime.py benchmarks/bench_compile_pipeline.py benchmarks/bench_certify.py "benchmarks/bench_kernels.py::test_sparse_kernel_gate" benchmarks/bench_service.py --benchmark-only -s

bench-compile:   ## compiler-pipeline bench (cold vs warm disk cache)
	$(PYTHON) -m pytest benchmarks/bench_compile_pipeline.py --benchmark-only -s

trace-table1:    ## smoke-run the telemetry pipeline end to end
	$(PYTHON) -m repro trace table1

serve-smoke:     ## smoke-run the multi-tenant solve service demo workload
	$(PYTHON) -m repro serve --requests 9 --tenants 3 --workers 2 --n 6

all-checks: test docs-check lint certify serve-smoke
