# Development targets (see README.md "Development").
#
# Works from a plain checkout (PYTHONPATH=src) or an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test golden chaos examples bench perf perf-check perf-smoke e2e-smoke e2e-trace-smoke e2e-trace-cli-smoke serve lint install

test:  ## tier-1 suite: unit tests + benchmark reproductions
	$(PYTHON) -m pytest -x -q

golden:  ## regenerate tests/data/golden_{search,implement}.jsonl; every regeneration needs a CHANGES.md line saying why
	$(PYTHON) tests/golden_search.py

chaos:  ## fault-injection suite: watchdog, retry, resume, quarantine, the result log's kill -9 and fuzz tests
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_result_log.py -q

# The library examples (service_smoke.py boots a server and runs in
# the CI service job on its own).
EXAMPLES := quickstart design_space_exploration edge_vision_macro cloud_fp_macro weight_double_buffering

examples:  ## run every library example against a throwaway REPRO_CACHE_DIR; each must exit 0
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for ex in $(EXAMPLES); do \
		REPRO_CACHE_DIR="$$tmp" $(PYTHON) examples/$$ex.py > /dev/null || \
			{ echo "examples: examples/$$ex.py failed" >&2; exit 1; }; \
		echo "examples/$$ex.py: ok"; \
	done

bench:  ## benchmark suite only, with timing columns
	$(PYTHON) -m pytest benchmarks -q --benchmark-columns=mean,stddev,ops

perf:  ## hot-path perf suite; appends to benchmarks/results/BENCH_perf.json
	$(PYTHON) benchmarks/perf/run_perf.py

perf-check:  ## CI gate: latest perf entry vs checked-in baseline (>2x fails)
	$(PYTHON) benchmarks/perf/check_regression.py

perf-smoke:  ## CI guard: warm SCL load + single search under ceilings
	$(PYTHON) -m pytest benchmarks/perf -q

e2e-smoke:  ## every e2ebench workload for 5 s; fails unless the result line says "correct": true
	@mkdir -p .bench_tmp
	$(PYTHON) e2ebench/run.py --workload all --seconds 5 --trace 0 | tee .bench_tmp/e2e-smoke.log
	@tail -n 1 .bench_tmp/e2e-smoke.log | grep -q '"correct": true' || \
		{ echo 'e2e-smoke: the result line does not report "correct": true' >&2; exit 1; }

# Spans of engine names that e2ebench/spans.py wraps: if the engine
# stops calling one of them by that name, its span reads zero.  The
# store's: ResultCache.get (lookups) and SweepJournal.done, the one
# write of each record.
TRACE_GUARDS := batch.wait_s batch.worker_init_s batch.job_s batch.cache_get_s batch.journal_s

e2e-trace-smoke:  ## traced dse-sweep for 5 s; fails unless correct with non-zero $(TRACE_GUARDS)
	@mkdir -p .bench_tmp
	$(PYTHON) e2ebench/run.py --workload dse-sweep --seconds 5 --trace 1 | tee .bench_tmp/e2e-trace-smoke.log
	@tail -n 1 .bench_tmp/e2e-trace-smoke.log | $(PYTHON) -c 'import json, sys; \
		r = json.load(sys.stdin); m = r["metrics"]; \
		zero = [k for k in sys.argv[1:] if not m.get(k, {}).get("value")]; \
		ok = r["correct"] is True and not zero; \
		ok or print("e2e-trace-smoke: correct=%s, zero or missing: %s" % (r["correct"], zero), file=sys.stderr); \
		sys.exit(0 if ok else 1)' $(TRACE_GUARDS)

# The flow's counterpart: spans of the names e2ebench/spans.py wraps in
# a traced `repro compile` (repro.compiler.flow's module globals such as
# verify_macro and write_gds_json, generate_memory_array, Module.flatten,
# NetView.__init__, optimize, recover_leakage).  A function-local import
# or a rename zeroes one.  One NetView walk per implement attempt: the
# median per compile must read exactly 1.
CLI_TRACE_GUARDS := rtl.generate_s rtl.flatten_s rtl.netview_s synth.optimize_s \
	synth.vt_recover_s signoff.s verify.s rtl.verilog_s layout.gds_s

e2e-trace-cli-smoke:  ## traced cli-compile for 5 s; fails unless correct, one NetView walk, non-zero $(CLI_TRACE_GUARDS)
	@mkdir -p .bench_tmp
	$(PYTHON) e2ebench/run.py --workload cli-compile --seconds 5 --trace 1 | tee .bench_tmp/e2e-trace-cli-smoke.log
	@tail -n 1 .bench_tmp/e2e-trace-cli-smoke.log | $(PYTHON) -c 'import json, sys; \
		r = json.load(sys.stdin); m = r["metrics"]; \
		zero = [k for k in sys.argv[1:] if not m.get(k, {}).get("value")]; \
		builds = m.get("rtl.netview_builds", {}).get("value"); \
		ok = r["correct"] is True and not zero and builds == 1; \
		ok or print("e2e-trace-cli-smoke: correct=%s, rtl.netview_builds=%s, zero or missing: %s" \
			% (r["correct"], builds, zero), file=sys.stderr); \
		sys.exit(0 if ok else 1)' $(CLI_TRACE_GUARDS)

SERVE_ARGS ?= --port 8841 --workers 2 -j 2

serve:  ## run the compile service (docs/service.md); override SERVE_ARGS
	$(PYTHON) -m repro serve $(SERVE_ARGS)

lint:  ## ruff, if installed (CI always runs it)
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; pip install ruff (or pip install -e '.[dev]')"; \
	fi

install:  ## editable install with dev extras
	$(PYTHON) -m pip install -e '.[dev]'
