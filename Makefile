# Tier-1 verification and developer workflow. `make check` is the one
# command CI and PR authors run.

GO ?= go

.PHONY: check fmt vet lint build test race shuffle bench clean

check: fmt vet lint build test

# lint runs swvet, the repo's static analyzers (internal/analysis):
# wallclock, rawrand, maporder, straygo, printless and deadexport (exported
# types, vars and consts only; whether a function is linked into a program
# is reach_test.go's question, run by `test`). Non-zero exit on any
# unsuppressed finding; see the "Static analysis" section of the README
# for the suppression policy.
lint:
	$(GO) run ./cmd/swvet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# shuffle catches test-order dependence. The seed is chosen fresh and
# echoed first, so a failing run can be reproduced exactly with
# `go test -shuffle=<seed> -count=1 ./internal/...`.
shuffle:
	@seed=$$(date +%s); \
	echo "go test -count=1 -shuffle=$$seed ./internal/..."; \
	$(GO) test -count=1 -shuffle=$$seed ./internal/...

# bench runs the two-clock benchmark of bench/ (workloads and bounds
# in BENCHMARK.json, method in bench/README.md).
bench:
	bash bench/run.sh

clean:
	$(GO) clean -testcache
