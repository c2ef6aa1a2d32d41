# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test short race vet lint bench bench-json bench-compare fuzz chaos crash examples reproduce clean

all: build vet test

build:
	go build ./...

test:
	go test ./...

short:
	go test -short ./...

race:
	go test -race ./...

vet:
	go vet ./...

# lint = vet + gofmt, plus staticcheck/govulncheck when on PATH (CI
# installs them; local runs degrade gracefully without network access).
lint: vet
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

bench:
	go test -bench=. -benchmem .

# bench-json captures the bench run as JSON (BENCH_<date>.json) for
# regression tracking; -short keeps it at test scale. -count=3 gives
# benchjson three samples per benchmark to collapse best-of-N: macro
# benchmarks jitter by tens of percent on a loaded host, and the
# fastest sample is the one that reflects the code.
bench-json:
	go test -bench=. -benchmem -short -count=3 -timeout=60m . | go run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json

# bench-compare gates the current bench run against the committed
# baseline: >20% ns/op slowdown fails, as does any allocs/op increase
# on zero-alloc benchmarks (>0.1% on allocation-heavy ones). Samples
# best-of-3 like bench-json so host noise doesn't trip the gate.
BENCH_BASELINE ?= BENCH_20261017.json
bench-compare:
	go test -bench=. -benchmem -short -count=3 -timeout=60m . | go run ./cmd/benchjson -o /tmp/bench_current.json
	go run ./cmd/benchjson -compare $(BENCH_BASELINE) /tmp/bench_current.json

fuzz:
	go test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/ethernet/
	go test -fuzz=FuzzUnmarshalMessage -fuzztime=30s ./internal/gptp/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/faults/
	go test -fuzz=FuzzWALReader -fuzztime=30s ./internal/wal/

# chaos runs a randomized invariant-checking campaign (fixed default
# seed — rerun with the same profile to reproduce); failing cases leave
# minimal-repro artifacts in chaos-out/.
chaos:
	go run ./cmd/tsnsim -chaos default -chaos-budget 60s -chaos-out chaos-out

# crash runs the fixed-seed kill-anywhere crash-recovery campaign
# against a race-instrumented tsnserve: 50 SIGKILL/WAL-hook kill points,
# each followed by a restart that must recover every acknowledged
# transaction. The durable state lives in crash-state/ (kept on failure
# for inspection, removed on a passing run).
crash:
	rm -rf crash-state
	go build -race -o tsnserve.crash ./cmd/tsnserve
	./tsnserve.crash -crash-chaos -chaos-seed 42 -crash-kills 50 -state-dir crash-state
	rm -rf crash-state tsnserve.crash

examples:
	@for ex in quickstart ring-industrial star-production-cell \
	            platform-compare tas-lowlatency reconfigure gptp-failover \
	            ring-frer-failover live-reconfigure; do \
		echo "=== $$ex ==="; go run ./examples/$$ex || exit 1; \
	done

reproduce:
	go run ./cmd/tsnbench -exp all

clean:
	go clean ./...
