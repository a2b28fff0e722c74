# Development entry points for the TopkRGS reproduction.

GO ?= go

.PHONY: all build vet analyze analyze-json test race bench perf benchgate experiments fuzz serve clean

all: build vet analyze test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: conventions (bitset aliasing, float
# compares, panic and error hygiene) plus the contract-verification
# layer (allocfree, visitoralias, ctxflow, sentinelwrap).
# See DESIGN.md §7.
analyze:
	$(GO) run ./cmd/vetsuite ./...

# Machine-readable findings (schema vetsuite-findings/2). CI diffs this
# against the checked-in empty baseline; regenerate the baseline with
#   make analyze-json && cp vetsuite-findings.json .vetsuite-baseline.json
# after adding an analyzer (the rule table is part of the output).
analyze-json:
	$(GO) run ./cmd/vetsuite -json ./... > vetsuite-findings.json

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# One Go benchmark per paper table/figure plus ablations (gene-scaled).
bench:
	$(GO) test -bench=. -benchmem ./...

# Times the mining benchmarks (every benchmark whose name holds Mine),
# five repeats each, with allocation counts that nothing checks.
# BenchmarkMineTall/train is a whole train at Workers 2 on a cancelable
# context, so it also times the two class searches' cancellation
# checks. The zero-allocation pin on the kernel's steady state is
# TestKernelSteadyStateAllocs, which go test runs outside -race.
perf:
	$(GO) test -run '^$$' -bench 'Mine' -benchmem -count=5 ./...

# Benchmark gate of a change against BASE (a commit, branch or tag),
# the one CI runs on pull requests: ten alternating pairs of
# rcbtbench's classify-open workload, BASE against HEAD, each built in
# a checkout of its own, then rcbtbench -compare. It fails on a failed
# run or a regressed metric. See scripts/benchgate.sh.
benchgate:
	bash scripts/benchgate.sh $(BASE)

# Paper-scale regeneration of every table and figure into results/.
experiments:
	mkdir -p results
	$(GO) run ./cmd/benchrunner -exp table1       > results/table1.txt
	$(GO) run ./cmd/benchrunner -exp table2       > results/table2.txt
	$(GO) run ./cmd/benchrunner -exp defaultclass > results/defaultclass.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets ALL,LC -budget 500000 > results/fig6_all_lc.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets PC -budget 500000 -minsups 0.95,0.9,0.85 > results/fig6_pc.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets OC -budget 500000 -minsups 0.95,0.9 -topkbudget 50000000 > results/fig6_oc.txt
	$(GO) run ./cmd/benchrunner -exp fig6e        > results/fig6e.txt
	$(GO) run ./cmd/benchrunner -exp fig7         > results/fig7.txt
	$(GO) run ./cmd/benchrunner -exp fig8         > results/fig8.txt
	$(GO) run ./cmd/benchrunner -exp minsupsweep  > results/minsupsweep.txt
	$(GO) run ./cmd/benchrunner -exp groupcount   > results/groupcount.txt
	$(GO) run ./cmd/benchrunner -exp topgenes     > results/topgenes.txt
	$(GO) run ./cmd/benchrunner -exp ablation -budget 500000 > results/ablation.txt

# Serve the checked-in model fixture locally. Point real deployments at
# models written by `go run ./cmd/rcbt -train ... -save model.json`.
serve:
	$(GO) run ./cmd/rcbtserved -model fixture=internal/serve/testdata/model.json -addr :8344

# Short fuzzing sessions over the dataset parsers, the bit-set algebra,
# the discretizer, the model envelope decoder, FindLB against its
# reference search, the request reader against encoding/json, the job
# body and the dataset snapshot decoder.
fuzz:
	$(GO) test -fuzz FuzzReadMatrix -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzReadDataset -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzSetOps -fuzztime 30s ./internal/bitset/
	$(GO) test -fuzz FuzzFusedOps -fuzztime 30s ./internal/bitset/
	$(GO) test -fuzz FuzzDiscretize -fuzztime 30s ./internal/discretize/
	$(GO) test -fuzz FuzzLoadModel -fuzztime 30s ./internal/rcbt/
	$(GO) test -fuzz FuzzFind -fuzztime 30s ./internal/lowerbound/
	$(GO) test -fuzz FuzzRequestDecode -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzJobRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzLoadSnapshot -fuzztime 30s ./internal/datastore/

clean:
	rm -f test_output.txt bench_output.txt
