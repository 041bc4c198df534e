# Targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift.

GO ?= go

.PHONY: all build loc test test-386 vet-arm64 race bench bench-claim bench-scale profile fmt fmt-fix vet lint vulncheck cover scenario-smoke service-smoke fuzz-smoke ci

# The committed coverage floor (total statement coverage, percent).
# Raise it when coverage rises; CI fails below it.
COVER_FLOOR = 76

all: build test

build:
	$(GO) build ./...

# Non-test Go lines outside bench/: the number the roadmap's "collapse
# duplicate paths" item moves. The CI build job echoes it, so the
# trajectory is a number in the log.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l

test:
	$(GO) test ./...

# The tests on a 32-bit int: a 386 binary runs natively on an amd64
# host, so every golden is checked with int and uintptr at 32 bits.
test-386:
	GOARCH=386 $(GO) test ./...

# A compile gate for a second 64-bit architecture, where the compiler
# may fuse float multiply-adds; there is no arm64 host to run on.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race ./...

# The CI bench smoke run: one iteration of the two core build benches,
# the graph-level 64k micro-benchmarks (Evolve, SpectralGap, Simple)
# that pin the flat fast path, the evolution sequence of the build_fast
# workload (CreateExpander_16k), the session epoch benches (every
# BenchmarkSessionEpoch*: the charged and measured repair, the cached
# and uncached Chord reads, the first view reads, the maintained sync)
# and par.Team's hand-off between a serial stretch and a pass
# (TeamHandoff).
bench:
	$(GO) test -run='^$$' -bench='BuildTreeFast_1k|BuildTreeMessageLevel_256|Evolve_64k|CreateExpander_16k|SpectralGap_64k|Simple_64k|SessionEpoch|TeamHandoff' -benchtime=1x -benchmem ./...

# The claim-ledger smoke: bench/run.sh builds ./bench (the benchmark
# BENCHMARK.json declares, see bench/README.md) and runs one short
# traced churn_measured workload. Only the exit code counts: the run
# fails when an epoch, a shadow-replayed repair, a lookup or the metric
# contract fails its output check; its timings mean nothing at 3 s.
bench-claim:
	bash bench/run.sh --workload churn_measured --seconds 3 --trace 1

# The full scale sweep (E12, up to n=64k message-level; takes minutes).
bench-scale:
	$(GO) test -run='^$$' -bench='E12_ScaleSweep' -benchtime=1x -benchmem -v ./...

# CPU + heap profiles of the message-level hot path (quick E12).
profile:
	$(GO) run ./cmd/benchharness -quick -only E12 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# Coverage with the committed floor: the profile is written to
# coverage.out and cmd/covguard fails the build below $(COVER_FLOOR)%.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) run ./cmd/covguard -profile coverage.out -min $(COVER_FLOOR)

# The scenario smoke: the canned fault scenarios (crash-stop churn,
# lossy delayed network, the sustained-adversary recovery ladder, and
# the correlated domain cut) at n=4096 under the race detector, plus
# the bounded random-spec fuzzer (failing seeds shrink and print).
scenario-smoke:
	SCENARIO_N=4096 $(GO) test -race -timeout 20m -run 'TestCannedScenarios|TestScenarioFuzzSmoke' -v ./internal/scenario

# The service smoke: overlayd under the race detector, closed-loop
# loadgen with a churn+fault plan applied over the wire mid-run, a
# load burst overlapping the SIGTERM drain, and a clean exit-0
# shutdown (zero hung requests, zero dropped-on-floor errors).
service-smoke:
	bash scripts/service_smoke.sh

# The fuzz smoke: 10 s of each native fuzz target — the derived-view
# rank arithmetic, the evolver and delivery under an adversary, each
# against its specification, the identifier stream's inverse, the
# four wire round-trips (the build protocol's flood/interval and
# jump/find payloads, the repair protocol's six, the expander's token),
# the plan parser and overlayd's page parser.
# go test -fuzz takes one target and one package per run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParsePlan$$' -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz='^FuzzDrawOf$$' -fuzztime=10s ./internal/rng
	$(GO) test -run='^$$' -fuzz='^FuzzFaultDelivery$$' -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzDerivedEdges$$' -fuzztime=10s ./internal/overlays
	$(GO) test -run='^$$' -fuzz='^FuzzEvolveMatchesSpec$$' -fuzztime=10s ./internal/expander
	$(GO) test -run='^$$' -fuzz='^FuzzFloodIntervalRoundTrip$$' -fuzztime=10s ./internal/wft
	$(GO) test -run='^$$' -fuzz='^FuzzJumpFindRoundTrip$$' -fuzztime=10s ./internal/wft
	$(GO) test -run='^$$' -fuzz='^FuzzRepairWireRoundTrip$$' -fuzztime=10s ./internal/wft
	$(GO) test -run='^$$' -fuzz='^FuzzTokenRoundTrip$$' -fuzztime=10s ./internal/expander
	$(GO) test -run='^$$' -fuzz='^FuzzParsePage$$' -fuzztime=10s ./internal/service

# Fail (like CI) when any file needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (cmd/overlayvet): determinism,
# wire-discipline, hotpath, and single-writer contracts, enforced on
# every package. Fails on any finding.
lint:
	$(GO) run ./cmd/overlayvet ./...

# Known-vulnerability scan. Informational when govulncheck cannot be
# installed or reached (offline runners); a hard failure only when it
# runs and finds a called vulnerability (exit code 3).
vulncheck:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; then \
		echo "govulncheck: no known vulnerabilities"; \
	else \
		rc=$$?; \
		if [ $$rc -eq 3 ]; then echo "govulncheck: known vulnerabilities found" >&2; exit 1; fi; \
		echo "govulncheck: unavailable (rc=$$rc), skipping (informational)"; \
	fi

ci: fmt vet vet-arm64 lint vulncheck build loc test-386 race bench bench-claim cover scenario-smoke service-smoke fuzz-smoke
