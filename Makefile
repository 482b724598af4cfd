# Developer entry points. The repo is pure Go with no generated code, so
# every target is a thin wrapper around the go tool.

GO ?= go

.PHONY: all build test vet fmt-check lint analyzers invariants race closbench closbench-digest identity bench-pairs fluid-smoke figures fuzz-smoke loc check

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
# cell fork one warm snapshot on several goroutines (internal/harness/fork.go),
# a source runs on beside the forks taken of it, and a fork is written into
# a fabric an earlier trial released while another is made of the same
# source; TestForkConcurrent, TestForkSourceRunsOn and
# TestForkIntoDirtyMatchesFresh do each ten times over, so a write to shared
# state that one schedule hides shows under another. The last two build
# their lead-in fabrics and cold oracles once per test binary, so the count
# repeats only the forks and their runs.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^(TestForkConcurrent|TestForkSourceRunsOn|TestForkIntoDirtyMatchesFresh)$$' ./internal/harness

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

# identity is the check of a change meant to move no simulated byte:
# `make identity PARENT=<rev>` builds cmd/closlab at PARENT (from git
# archive, in a temp dir) and from the working tree, runs each with
# `-experiment all -seed 1`, and fails unless their stdout and -out trees
# are identical. The two runs write the same -out path in turn, since
# stdout prints it.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>" >&2; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" && git archive "$(PARENT)" | tar -x -C "$$tmp/src" && \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent" ./cmd/closlab) && \
	$(GO) build -o "$$tmp/change" ./cmd/closlab || exit 1; \
	for b in parent change; do \
		"$$tmp/$$b" -experiment all -seed 1 -out "$$tmp/out" > "$$tmp/$$b.stdout" || exit 1; \
		mv "$$tmp/out" "$$tmp/$$b.out"; \
	done; \
	cmp "$$tmp/parent.stdout" "$$tmp/change.stdout" && \
	diff -r "$$tmp/parent.out" "$$tmp/change.out" && \
	echo "identity: closlab -experiment all -seed 1 is byte-identical to $(PARENT)"

# bench-pairs is a speed claim's evidence in one command: `make bench-pairs
# PARENT=<rev> WORKLOAD=<name> [N=10] [SEED=1]` builds bench at PARENT (from
# git archive, in a temp dir) and from the working tree, runs N pairs of
# `-workload WORKLOAD -seed SEED -reps 3`, the parent first in odd pairs and
# the change first in even ones, and prints every run's correct flag and
# five end-to-end values, then per metric each side's median and quartiles,
# the change of the median and how many pairs the change won. It fails if a
# run is not correct.
N ?= 10
SEED ?= 1
BENCH_METRICS = wall_ref cpu_ref work_per_ref alloc_mb setup_s
bench-pairs:
	@test -n "$(PARENT)" && test -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<rev> WORKLOAD=<name> [N=10] [SEED=1]" >&2; exit 2; }
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src" && git archive "$(PARENT)" | tar -x -C "$$tmp/src" && \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent" ./bench) && \
	$(GO) build -o "$$tmp/change" ./bench || exit 1; \
	echo "pair side correct $(BENCH_METRICS)"; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for b in $$order; do \
			"$$tmp/$$b" -workload "$(WORKLOAD)" -seed $(SEED) -reps 3 -out "$$tmp/$$b.json" 2>/dev/null | tail -n 1 | \
			awk -v pair=$$i -v side=$$b -v names="$(BENCH_METRICS)" '{ \
				line = pair " " side " " ($$0 ~ /"correct":true/ ? "true" : "false"); \
				n = split(names, m, " "); \
				for (k = 1; k <= n; k++) { \
					v = "NA"; \
					if (match($$0, "\"" m[k] "\":[{]\"value\":[-+.0-9eE]+")) { v = substr($$0, RSTART, RLENGTH); sub(/.*:/, "", v) } \
					line = line " " v; \
				} \
				print line }' | tee -a "$$tmp/runs"; \
		done; \
		i=$$((i + 1)); \
	done; \
	awk -v names="$(BENCH_METRICS)" ' \
		function q(side, k, p,   n, a, i, j, t, x) { \
			n = cnt[side, k]; for (i = 1; i <= n; i++) a[i] = val[side, k, i]; \
			for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
			x = 1 + (n - 1) * p; i = int(x); return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i]) } \
		BEGIN { nm = split(names, m, " ") } \
		{ if ($$3 != "true") bad++; \
		  for (k = 1; k <= nm; k++) { val[$$2, k, ++cnt[$$2, k]] = $$(k + 3); at[$$1, $$2, k] = $$(k + 3) } \
		  pairs[$$1] = 1 } \
		END { printf "\n%-13s %30s %30s %9s %6s\n", "metric", "parent median [q1 q3]", "change median [q1 q3]", "change", "wins"; \
		  for (k = 1; k <= nm; k++) { \
			won = 0; total = 0; \
			for (p in pairs) { total++; d = at[p, "change", k] - at[p, "parent", k]; if (m[k] == "work_per_ref" ? d > 0 : d < 0) won++ } \
			pm = q("parent", k, .5); cm = q("change", k, .5); \
			printf "%-13s %11.4g [%7.4g %7.4g] %11.4g [%7.4g %7.4g] %+8.2f%% %3d/%d\n", m[k], \
				pm, q("parent", k, .25), q("parent", k, .75), cm, q("change", k, .25), q("change", k, .75), \
				pm ? 100 * (cm - pm) / pm : 0, won, total } \
		  if (bad) { printf "%d run(s) not correct\n", bad; exit 1 } }' "$$tmp/runs"

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

# fuzz-smoke runs all 18 fuzz targets: each wire decoder (Ethernet, IPv4,
# UDP, ICMP, the MR-MTP message, data-frame and VID parsers, the BGP message
# parser and stream splitter), the differential targets holding the checksum
# kernel to the 16-bit reference loop, the split flow hash (a pair's prefix
# finished with the ports) to the byte-at-a-time FNV-1a, the indexed FIB to
# the linear scan and the event queue to the single heap it replaced (twice:
# plain, and under -tags invariants so that checkHeap validates the heaps
# after every fuzzed pop), the workload receive path (an open UDP port on
# every host), the text-log journal's parser (whatever it accepts renders
# and parses back unchanged), the chaos spec parser (whatever it accepts
# round-trips, and applies to a three-node line
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
	$(GO) test -run '^$$' -fuzz FuzzHashSplit -fuzztime $(FUZZ_TIME) ./internal/flowhash
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
	$(GO) test -tags invariants -run '^$$' -fuzz FuzzQueueOrder -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s ./internal/simnet

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
