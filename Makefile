# Developer entry points. `make verify` is the per-PR gate and it is
# tier 1, nothing else: the test suite runs every `--selftest` CLI
# (obs, fast-path A/B, component ablations, population, overload) at
# the size the shell runs it, and no wall-clock number is part of the
# verdict (`--durations=12` only prints the slowest tests, the ones
# ROADMAP item 5 budgets against, so every gate run shows them move).
# `make experiments` regenerates EXPERIMENTS.md. `make bench`
# runs the five-workload benchmark BENCHMARK.json declares (end-to-end
# metrics, one child process per workload) — the one place speed is
# measured; `make bench-test` runs the benchmark's own tests, which
# tier 1 does not collect.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test experiments bench bench-test

verify: test

test:
	$(PYTHON) -m pytest -x -q --durations=12

experiments:
	$(PYTHON) -m repro.experiments.run_all

bench:
	$(PYTHON) -m bench --seed 1

bench-test:
	$(PYTHON) -m pytest bench/tests -q
