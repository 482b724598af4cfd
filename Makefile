# Developer entry points. The repo is pure Go with no generated code, so
# every target is a thin wrapper around the go tool.

GO ?= go

.PHONY: all build test vet fmt-check lint analyzers invariants race closbench closbench-digest fluid-smoke figures fuzz-smoke loc check

all: check

build:
	$(GO) build ./...

# test is the tier-1 gate: it must stay green on every commit.
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when a tracked Go file is not gofmt-clean. The analyzer
# fixtures under testdata/ align their `// want` comments by hand and stay
# exempt.
fmt-check:
	@out="$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint enforces the determinism contract (DESIGN.md §8) with the repo's own
# analyzers — map iteration order, wall-clock/global-rand use, panics in
# packet-processing code, trial purity, and justified, still-live escape
# hatches. The hot-path contract (DESIGN.md §9) is not a lint rule: the
# allocation budgets in `make test` hold it, and `make invariants` enforces
# pool discipline at runtime (DESIGN.md §13).
# staticcheck runs too when installed; it is not vendored, so a bare
# container skips it rather than failing.
lint:
	$(GO) run ./cmd/simlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping" ; \
	fi

# analyzers runs everything under tools/ — the six lint passes'
# golden-fixture suites — and the simlint driver's exit-status/schema tests
# (also covered by `make test`; this target is the fast inner loop when
# writing a pass).
analyzers:
	$(GO) test ./tools/... ./cmd/simlint/...

# invariants runs the suite with runtime assertions compiled in: event-heap
# ordering, MR-MTP VID-table consistency, FIB next-hop validity, the path
# walk's memoised hops against the live tables (./internal/harness), and the
# pool ledgers (freelist poisoning, frame-arena double-Put and
# recycled-in-flight checks) panic on violation instead of silently
# corrupting a result.
invariants:
	$(GO) test -tags invariants ./...

# race runs the full suite under the race detector. The parallel trial
# harness (internal/harness/pool.go) is the main concurrency in the repo;
# this target is what validates it. TestGoldenArtifacts re-executes the
# race-built test binary for every campaign row, so the chaos and trace
# campaigns run end to end under the detector here as well. The trials of a
# cell fork one warm snapshot on several goroutines (internal/harness/fork.go);
# TestForkConcurrent does that ten times over, so a write to the snapshot
# that one schedule hides shows under another.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^TestForkConcurrent$$' ./internal/harness

# closbench runs the benchmark of record (BENCHMARK.json): four end-to-end
# workloads plus per-layer probes; see bench/README.md for flags and output.
closbench:
	$(GO) run ./bench

# closbench-digest is the CI tripwire for simulated results: one repetition
# per process of every workload at seed 1, each passing only when the
# driver's result object (the last stdout line) says "correct":true — every
# operation succeeded and sim_digest equals bench/golden.json. packet-fct and
# hybrid-million pin the data path (hybrid-million is the only workload whose
# packets serialize on the capacity a fluid reservation leaves: fluidBps in
# Port.Send); fabric-scale and convergence-grid pin the control plane — BGP
# decision order, FIB tie-breaks and the event count of every bring-up. A
# change that moves a simulated statistic fails here, in the PR that moved
# it. The timings the runs also print are not judged.
closbench-digest:
	$(GO) run ./bench -workload packet-fct -reps 1 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload hybrid-million -reps 1 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload fabric-scale -reps 1 | tail -n 1 | grep -q '"correct":true'
	$(GO) run ./bench -workload convergence-grid -reps 1 | tail -n 1 | grep -q '"correct":true'

# fluid-smoke is a race-enabled tripwire: one hybrid workload trial end to
# end — path resolution, rate reallocation, demotion to the packet path, and
# the engine-tagged artifacts.
fluid-smoke:
	$(GO) run -race ./cmd/closlab -experiment workload -engine hybrid -pods 2 -trials 1 -flows 60 -out /tmp/closlab-fluid-smoke

# figures prints every result the repo documents — Figs. 4-10, the
# listings, the ablation and scale tables, the workload/chaos/trace
# campaigns — via the CLI driver.
figures:
	$(GO) run ./cmd/closlab -experiment all

# fuzz-smoke runs all 17 fuzz targets: each wire decoder (Ethernet, IPv4,
# UDP, ICMP, the MR-MTP message, data-frame and VID parsers, the BGP message
# parser and stream splitter), the differential targets holding the checksum
# kernel to the 16-bit reference loop, the indexed FIB to the linear scan
# and the event queue to the single heap it replaced, the workload receive
# path (an open UDP port on every host), the text-log journal's parser
# (whatever it accepts renders and parses back unchanged), the chaos spec
# parser (whatever it accepts round-trips, and applies to a three-node line
# under traffic without a panic) and the two stateful targets — arbitrary frame sequences into warm MR-MTP routers, and
# arbitrary UPDATE, withdrawal and session down/up sequences into a BGP
# speaker held to the map-of-maps Adj-RIB-In it replaced. Each gets a short
# budget on top of its seed corpus: a regression tripwire, not a campaign.
# FuzzRouterFrames brings a fabric up per input and FuzzQueueOrder's inputs
# are scripts a kilobyte long, so their minimizers are capped or they would
# spend the whole budget shrinking the first input they keep.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/ethernet
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/ipv4
	$(GO) test -run '^$$' -fuzz FuzzChecksum -fuzztime $(FUZZ_TIME) ./internal/ipv4
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/udp
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZ_TIME) ./internal/icmp
	$(GO) test -run '^$$' -fuzz FuzzParseMessage -fuzztime $(FUZZ_TIME) ./internal/mrmtp
	$(GO) test -run '^$$' -fuzz FuzzParseData -fuzztime $(FUZZ_TIME) ./internal/mrmtp
	$(GO) test -run '^$$' -fuzz FuzzParseVID -fuzztime $(FUZZ_TIME) ./internal/mrmtp
	$(GO) test -run '^$$' -fuzz FuzzRouterFrames -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/mrmtp
	$(GO) test -run '^$$' -fuzz FuzzParseMessage -fuzztime $(FUZZ_TIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz FuzzSplitStream -fuzztime $(FUZZ_TIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz FuzzSpeakerSequence -fuzztime $(FUZZ_TIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz FuzzFIBLookup -fuzztime $(FUZZ_TIME) ./internal/ipstack
	$(GO) test -run '^$$' -fuzz FuzzOnDatagram -fuzztime $(FUZZ_TIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzParseJournal -fuzztime $(FUZZ_TIME) ./internal/harness
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZ_TIME) ./internal/chaos
	$(GO) test -run '^$$' -fuzz FuzzQueueOrder -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/simnet

# loc prints the non-test Go line counts (testdata/ left out) of the four
# source trees, of internal/ + cmd/ together and of each internal/ package:
# the sizes a change that deletes code quotes before and after.
LOC_COUNT = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l
loc:
	@for d in internal cmd tools bench; do printf '%-22s %6d\n' $$d "$$($(call LOC_COUNT,$$d))"; done
	@printf '%-22s %6d\n' 'internal + cmd' "$$($(call LOC_COUNT,internal cmd))"
	@for d in internal/*/; do printf '  %-20s %6d\n' "$${d%/}" "$$($(call LOC_COUNT,$$d))"; done

# check runs locally what CI's check, lint and fluid-smoke jobs run (the
# chaos and trace campaigns run under the race detector inside `race`, as
# rows of TestGoldenArtifacts); invariants, analyzers, fuzz-smoke and
# closbench-digest are their own targets, as they are their own CI jobs.
check: fmt-check build vet lint test race fluid-smoke
