# Convenience wrapper around dune.

.PHONY: all build test check bench bench-check bench-chase bench-scaling metrics fmt clean lint

all: build

build:
	dune build

test:
	dune runtest

# the CI gate: everything compiles and every suite (incl. the hardening
# fuzz/governance tests) passes
check:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

# the CI bench gate, locally: quick timing sweep -> BENCH_table1.json,
# validated and compared against the checked-in baseline
bench-check:
	dune exec bench/main.exe -- timing --quick -o BENCH_table1.json
	dune exec bench/check_bench.exe -- BENCH_table1.json bench/baseline_table1.json

# the chase engine scaling sweep only: incremental in-place engine vs
# the retained copy-per-step reference, same workload, with the speedup
# at the largest sweep size printed and the cells written as JSON
bench-chase:
	dune exec bench/main.exe -- chase -o BENCH_chase.json

# the multicore scaling sweep only: the three domain-pool fan-out
# surfaces (enumeration, typed search, lint) timed at 1/2/4 domains,
# with the >= 1.8x @ 4 domains contract gated by check_bench on hosts
# with >= 4 cores (informational elsewhere)
bench-scaling:
	dune exec bench/main.exe -- scaling -o BENCH_scaling.json
	dune exec bench/check_bench.exe -- BENCH_scaling.json

# OpenMetrics exposition of a chase on the shipped bibliography example
# (see DESIGN.md section 9): every counter, gauge, histogram and span
# aggregate, scrape-ready
metrics: build
	dune exec bin/pathctl.exe -- chase -s examples/data/sigma0.constraints \
	  "MIT.book.author -> MIT.person" --metrics METRICS.prom
	@echo "wrote METRICS.prom"

# dogfood the static analyzer over the shipped examples (text report;
# warnings are expected on the deliberately-bad lint fixtures, errors
# are not tolerated outside them)
lint: build
	dune exec bin/pathctl.exe -- lint -s examples/data/bibliography.constraints \
	  --schema examples/data/bibliography.schema \
	  --config examples/data/lint/pathctl.toml
	dune exec bin/pathctl.exe -- lint -s examples/data/sigma0.constraints \
	  --config examples/data/lint/pathctl.toml
	dune exec bin/pathctl.exe -- lint -s examples/data/constraints.xml \
	  --config examples/data/lint/pathctl.toml
	dune exec bin/pathctl.exe -- query lint examples/data/query/clean.query \
	  --schema examples/data/bibliography.schema --max-warnings 0

fmt:
	dune fmt

clean:
	dune clean
