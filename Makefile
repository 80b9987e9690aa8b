GO ?= go
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck

.PHONY: all fmt vet staticcheck vuln lint build test test-race test-chaos test-conformance fuzz-smoke bench bench-module bench-json bench-load ab loc check

all: check

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest) and degrades to a
# notice otherwise, so `make lint` never needs network access.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# govulncheck follows the same availability gate as staticcheck (CI
# installs it; locally: go install golang.org/x/vuln/cmd/govulncheck@latest)
# so the target works offline.
vuln:
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Static checks only: formatting + vet + staticcheck (what CI's lint step
# runs).
lint: fmt vet staticcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The cluster chaos harness: seeded kill/restart/partition/heal schedules
# over netsim with event-stream invariant checks — plus the provisioning
# matrix (artifact publish/fetch churn with replication-factor, phantom-
# holder and convergence invariants) — run under the race detector. The
# seed matrix is fixed inside the tests, so a pass here is reproducible
# bit for bit.
test-chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/cluster -v

# The PROTOCOL.md §1–§7 conformance suite (internal/conformance), run
# against BOTH backends that claim the wire protocol: the real daemon
# (cmd/dosgid) and the cluster simulator (internal/protosim). One body of
# checks pins both, under the race detector.
test-conformance:
	$(GO) test -race -count=1 -run 'TestConformance' ./cmd/dosgid ./internal/protosim -v

# A short native-fuzzing pass: every `func Fuzz` in the root module for
# 10 s each (`go test -fuzz` takes one target per run). A failure leaves
# its input under the package's testdata/fuzz, where `go test` replays it.
fuzz-smoke:
	@grep -rl --include='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build '^func Fuzz' . | sort | \
	while read -r file; do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$file"); do \
			echo "fuzz $$fn in $$(dirname "$$file")"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 10s "$$(dirname "$$file")" || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem -run XXX .

# The repo benchmark (benchmark/, BENCHMARK.json) is its own Go module, so
# `build` and `test` above never compile it: its probes call a dozen
# internal/ APIs directly and an API change breaks them silently unless
# this runs.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Machine-readable benchmark trajectory: E10–E13 appended as timestamped
# run points to BENCH_remote.json / BENCH_provision.json /
# BENCH_events.json / BENCH_directory.json at the repo root. Commit the
# refreshed files after performance work — each file carries its own run
# history.
bench-json:
	$(GO) run ./cmd/benchjson -out .

# Fixed-offered-rate load smoke (docs/LOADGEN.md): dosgi-load drives an
# in-process dosgi-sim over real TCP for a few seconds and appends an
# honest open-loop percentile point (latency from the intended start, so
# no coordinated omission) to BENCH_remote.json.
bench-load:
	$(GO) run ./cmd/dosgi-load -sim -rate 20000 -duration 3s -mode pipelined -out .

# The A/B procedure a performance claim is judged by (scripts/ab.sh):
# alternating parent/change pairs of one repo-benchmark workload, e.g.
#   make ab BASE=HEAD~1 WORKLOAD=call_small PAIRS=10
# SECONDS defaults to BENCHMARK.json's run length; CI runs a 1-pair,
# 3-second smoke of it.
ab:
	bash scripts/ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SECONDS)

# Size of the tree (scripts/loc.sh): non-test and test Go lines under the
# root module, the With* option-function count, the exported *Config field
# count, the ten largest non-test files — what a simplicity PR quotes
# before and after. Informational only.
loc:
	@bash scripts/loc.sh

# The tier-1 gate: formatting, static checks, build, tests — and the
# benchmark module those do not reach.
check: fmt vet build test bench-module
