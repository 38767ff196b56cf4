# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean doc quickbench kernelbench ci fmt chaos servesmoke certfuzz

all: build

# What CI runs: full build, test suite, formatting gate, bench smoke
# (writes the BENCH_PR4.json perf trajectory), serve smoke, examples
# smoke, certificate soundness fuzzing.
ci: build test fmt quickbench servesmoke examples certfuzz

fmt:
	dune build @fmt

build:
	dune build @all

test:
	dune runtest

retest:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

quickbench:
	dune exec bench/main.exe -- --quick

# Kernel-layer throughput: old-vs-new abstract propagation per domain,
# written to BENCH_PR9.json (schema contiver-bench-pr9-v1). CI
# regenerates it in quick mode and gates on schema, verdict agreement
# with the committed BENCH_PR7.json, and throughput floors.
kernelbench:
	dune exec bench/main.exe -- --only-kernels

# Seeded fault-injection campaign: verdicts may degrade under faults,
# never flip. CI runs this for three seeds (chaos-matrix job).
chaos:
	dune exec bin/contiver.exe -- chaos --seed 1 --rounds 8

# Serve smoke: a bounded self-driving serve session must complete two
# monitored OOD -> SVuDC -> commit rounds under a deadline and emit a
# valid contiver-serve-status-v1 stream with artifact-cache hits.
servesmoke:
	timeout 120 dune exec bin/contiver.exe -- serve --drive --rounds 2 > SERVE_SMOKE.ndjson
	python3 scripts/check_serve_status.py SERVE_SMOKE.ndjson 2

# Certificate soundness fuzzing: random nets/properties through the
# full pipeline with --emit-cert semantics, every certificate replayed
# by the trusted checker, mutants rejected, Violated verdicts
# cross-checked against concrete evaluation. Any failing certificate
# is dumped under _build/certfuzz-failures (CI uploads it). The three
# fixed seeds are the CI smoke matrix; `make certfuzz SEEDS="9 10"`
# overrides them.
SEEDS ?= 1 2 3
certfuzz:
	dune build test/certfuzz.exe
	for s in $(SEEDS); do \
	  dune exec test/certfuzz.exe -- -seed $$s -rounds 40 \
	    -out _build/certfuzz-failures || exit 1; \
	done

# The last two are the only non-test callers of Session and Specchange;
# CI runs them (examples smoke) and requires exit 0.
examples:
	dune exec examples/quickstart.exe
	dune exec examples/paper_example.exe
	dune exec examples/collision_avoidance.exe
	dune exec examples/continuous_loop.exe

# requires odoc (not vendored): opam install odoc
doc:
	dune build @doc

clean:
	dune clean
