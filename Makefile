GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet check sarif fuzz-smoke chaos bench bench-smoke metrics-smoke obs-overhead store-crash repl-crash serve-soak ci

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The §5 parallel executors are validated under the race detector: the
# race-stress tests in internal/core pit DirectHopParallel and
# WorkSharingParallel at worker budgets 1/2/GOMAXPROCS against sequential
# Work-Sharing over a shared representation. The units are the only
# concurrency: every engine pass runs on its unit's goroutine, which owns
# the state it writes.
race:
	$(GO) test -race -timeout 45m ./...

# vet = the standard toolchain vet plus cgvet, the repo's own
# invariant-checking analyzers (`go run ./cmd/cgvet -list`: csrimmutable,
# gopanic, obsdiscipline, closecheck, the flow tier goleak / errflow /
# spanend, and ignorehygiene). Both must be clean: every cgvet finding
# fails, and `go test ./...` runs the same suite as TestModuleIsClean.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/cgvet ./...

# check = the full static gate: compile, toolchain vet, cgvet.
check: build vet

# sarif renders the cgvet findings as SARIF 2.1.0 (cgvet.sarif) for
# GitHub code-scanning upload. The exit status still reflects them.
sarif:
	$(GO) run ./cmd/cgvet -sarif ./... > cgvet.sarif

# Short deterministic fuzz of the graph ingest paths (text + binary), the
# row patcher of the maintained common graph (PatchRows against a rebuild,
# branches included), the snapshot store's head index (commit verdicts and
# membership against a map of the head's edges) and the engine differential
# oracle (every engine path vs reference.go on fuzzer-shaped random graphs
# and batches).
fuzz-smoke:
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzParseEdgeList$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzLoadCSR$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzEdgeListIO$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzPatchRows$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzHeadIndex$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzEngineDifferential$$' -fuzztime $(FUZZTIME)

# Probabilistic fault injection under the race detector: seeded random
# errors and panics (internal/faults) at the schedule-edge fault point
# against both concurrent executors, degrading or not, plus the
# deterministic fault/cancellation matrix and the race-stress suite.
# Every outcome must be a clean result, an exact degraded result, or a
# wrapped injected error — never a crash.
chaos:
	COMMONGRAPH_CHAOS=1 COMMONGRAPH_TRACE=log $(GO) test -race ./internal/core -count=1 \
		-run 'Chaos|Fault|Panic|Degrade|Cancellation|RaceStress'
	$(GO) test -race . -count=1 -run 'Fault|Degrade|Cancelled|WatcherConcurrent|WatcherRetries'

# Metrics-endpoint smoke: scrape a live Watcher.ServeMetrics endpoint
# over HTTP and validate the Prometheus exposition plus counter deltas
# against Result fields, then the registry's own format round-trips.
metrics-smoke:
	$(GO) test . -count=1 -run 'MetricsEndpoint|MetricsServer'
	$(GO) test ./internal/obs -count=1

# Always-on observability gate: time the kickstarter maintain loop with
# flight recording off (nil ambient tracer — the pre-instrumentation
# path) and on (ring-only recorder). The experiment itself FAILS when
# the recorder costs more than 5%, so this target is a hard CI gate.
obs-overhead:
	$(GO) run ./cmd/cgbench -exp obs-overhead

# The repository benchmark (BENCHMARK.json, benchmark/README.md), built
# and run the way the driver does it: every workload in a child process
# of its own at the catalogue's run_seconds, timed phase then traced
# phase. Every metric is printed by name and unit; a failed reference or
# agreement check fails the run.
bench:
	bash benchmark/run.sh

# The same four workloads at a twentieth of the size (about a minute):
# the numbers mean little at that scale, the exit code is the correctness
# gate (engine.Reference on whole snapshots, same-query agreement).
bench-smoke:
	$(GO) run ./benchmark -scale 0.05

# Durable-store crash matrix under the race detector: kill points injected
# at every WAL/segment/manifest/compaction write boundary (internal/faults),
# the byte-level torn-tail truncation sweep, the mmap segment tests (map
# kill points, corruption, mapped-vs-materialized equivalence), and the
# end-to-end ingest crash-replay that resumes from
# Acknowledged()+Recovered() and must land byte-identical to the
# uncrashed run.
store-crash:
	$(GO) test -race ./internal/store -count=1 -run 'KillPoint|TornTail|Corrupt|Recovery'
	$(GO) test -race ./internal/store -count=1 -run 'Mapped'
	$(GO) test -race . -count=1 -run 'TestDurableIngestCrashReplayMatrix|TestDurableIngestMatchesInMemory|TestPersistReopenDifferential|TestWatcherPersistCompaction'

# Replication failover matrix under the race detector: kill points
# injected at every ship/replay/promote boundary (faults.Repl*), the
# follower crash-and-cold-reopen recovery sweep, seeded chaos shipping,
# and the epoch-fencing promotion matrix (a fenced stale primary must
# never commit after a follower is promoted), plus the public-surface
# failover and follower-read-equivalence differentials.
repl-crash:
	$(GO) test -race ./internal/repl -count=1 -run 'KillPoint|CrashRecovery|Chaos|Promote|Fences|Reopen|Rebootstrap'
	$(GO) test -race ./internal/store -count=1 -run 'Epoch|Fenc'
	$(GO) test -race . -count=1 -run 'TestFailoverPromotion|TestFailoverTraceLineage|TestStitchedTraceAcrossReplication|TestFollowerReadEquivalence|TestFollowerStalenessBudget|TestFollowerReopenServesOffline|TestFollowerWindowWidthSlides'

# Query-service soak under the race detector: concurrent mixed-tenant
# load with live window commits (admission, quotas, result-cache
# invalidation, cross-query ICG sharing), the commit-vs-cache-insert
# race injected at faults.ServeCacheInsert, and the wire golden files.
serve-soak:
	$(GO) test -race ./internal/serve -count=1
	$(GO) test -race ./api/v1 -count=1
	$(GO) test -race . -count=1 -run 'TestPlanCache'

ci: check test race fuzz-smoke chaos metrics-smoke obs-overhead bench-smoke store-crash repl-crash serve-soak
