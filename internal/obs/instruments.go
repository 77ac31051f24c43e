package obs

// The canonical pipeline instruments, all on the Default registry. Their
// names and labels are a stable contract documented in DESIGN.md
// "Observability"; dashboards and the CI metrics smoke job depend on
// them. Strategy label values are the slugs of evaluate.go's Strategy
// (kickstarter, independent, direct-hop, direct-hop-parallel,
// work-sharing, work-sharing-parallel); fault point label values are the
// internal/faults Point names.
//
// Accessors take the label value and cache on the registry, so per-query
// resolution is two map lookups; executors resolve once per query and
// update handles lock-free.

const (
	helpQueries     = "Queries evaluated, by strategy."
	helpQueryErrs   = "Queries that returned an error, by strategy."
	helpAdds        = "Addition-batch edges streamed (the schedule cost), by strategy."
	helpDels        = "Deletion-batch edges streamed (KickStarter only), by strategy."
	helpSnaps       = "Snapshot results produced, by strategy."
	helpHops        = "Latency of one schedule hop (a Direct-Hop hop, a Work-Sharing root subtree), by strategy."
	helpDegraded    = "Schedule subtrees that failed and were recomputed via the Direct-Hop fallback."
	helpFaults      = "Injected fault firings, by injection point (chaos/fault-injection runs only)."
	helpWorkersBusy = "Executor goroutines currently running a hop or subtree."
	helpRetries     = "Watcher maintenance retries after transient failures."
	helpMaintOps    = "Watcher maintenance operations completed, by kind (append, advance, slide)."
	helpMaintErrs   = "Watcher maintenance operations that ultimately failed, by kind."
	helpIngBatches  = "Update windows the ingest batcher closed and handed to the store."
	helpIngUpdates  = "Raw single-edge updates accepted by the ingest batcher."
	helpWALAppends  = "Durable-store WAL append calls (each is one fsync)."
	helpWALBytes    = "Bytes appended to the durable-store WAL."
	helpWALTrunc    = "WAL torn tails truncated during crash recovery."
	helpWALTrimFail = "Post-commit WAL rotations that failed after the manifest swap (tolerated; stale records drop on the next rotation or open)."
	helpSegWrites   = "Durable-store segments written (base + overlay)."
	helpSegBytes    = "Bytes written into durable-store segments."
	helpSegLoads    = "Durable-store segments loaded from disk."
	helpCompactions = "Durable-store compactions (overlays folded into a new base generation)."
	helpFoldBacklog = "Edges in overlay segments behind the watcher's window as of its last slide, awaiting the slide compaction (folded once they reach 1/8 of the base segment)."
	helpCompactGC   = "Compaction garbage-collection failures (superseded segment files left on disk)."
	helpRecovered   = "Raw updates recovered from the WAL and re-seeded on open."

	helpReplFrames     = "Replication frames sent, by frame type."
	helpReplFrameRecv  = "Replication frames received, by frame type."
	helpReplBytes      = "Replication payload bytes shipped (frames sent, header + payload)."
	helpReplReplayed   = "Committed transitions a follower replayed into its local store."
	helpReplReconnects = "Follower catch-up loop reconnect attempts after a broken session."
	helpReplLagSeq     = "Follower staleness in WAL sequence numbers (primary commit pointer minus local)."
	helpReplLagWindows = "Follower staleness in committed windows (primary transitions minus local)."
	helpReplFencings   = "Stores fenced by observing a higher replication epoch."
	helpReplPromotions = "Follower promotions (epoch bumps) completed."
	helpReplSnapshots  = "Full snapshot bootstraps shipped to followers (catch-up was impossible incrementally)."
	helpReplStaleReads = "Follower reads served (or refused) beyond the staleness budget, by outcome (served, refused)."

	helpServeRequests  = "Query-service requests, by tenant and outcome (ok, error, bad-request, rejected-queue, rejected-quota)."
	helpServeQueue     = "Query-service jobs currently queued awaiting a worker."
	helpServeInflight  = "Query-service jobs currently executing on a worker."
	helpServeLatency   = "Query-service end-to-end request latency, seconds (admission through response)."
	helpServeCache     = "Query-service result-cache events (hit, miss, insert, skip, invalidate)."
	helpServeICG       = "ICG (intermediate common graph) evaluations by the cross-query sharing layer, by kind: solve (from-scratch on a union interval), derive (incremental from a containing interval's state), shared (clone of a memoized state)."
	helpServePlanCache = "Lookups of the window-plan memo an evolving graph keeps, by outcome: rep-hit, rep-miss (a representation was built), sched-hit, sched-miss (a Triangular Grid and schedule were built)."
	helpServeCacheAdm  = "Result-cache inserts refused by the admission policy (estimated result bytes above the configured budget)."

	helpSegMaps      = "Durable-store segments opened as read-only memory mappings (zero-copy cold open)."
	helpSegMapBytes  = "Bytes memory-mapped read-only from durable-store segments."
	helpSegMapScrubs = "Mapped segments whose CRC trailer was verified by an on-demand scrub."
	helpSegScrubBy   = "Bytes touched by mapped-segment CRC scrubs — a page-in proxy: each scrub walks the whole mapping, so this approximates the fault-in I/O a cold mapped read pays."

	helpTraceDropped = "Trace events discarded because a tracer's event buffer was full (a synthetic trace.dropped event marks the gap in the export)."
	helpSlowQueries  = "Queries slower than the slow-log threshold, by strategy."
	helpIncidents    = "Incident dumps triggered (panic, fenced, stale refusal), by reason; flight-recorder/slow-log dumps are rate-limited, the counter is not."

	helpGoroutines  = "Live goroutines (runtime/metrics /sched/goroutines:goroutines)."
	helpHeapBytes   = "Heap memory occupied by live objects plus unswept spans (runtime/metrics /memory/classes/heap/objects:bytes)."
	helpGCPauseP99  = "99th-percentile stop-the-world GC pause, seconds, over the process lifetime (runtime/metrics /sched/pauses/total/gc:seconds)."
	helpSchedLatP99 = "99th-percentile time goroutines spent runnable before running, seconds, over the process lifetime (runtime/metrics /sched/latencies:seconds)."
	helpGCCycles    = "Completed GC cycles (runtime/metrics /gc/cycles/total:gc-cycles)."
)

// Queries counts evaluated queries for one strategy slug.
func Queries(strategy string) *Counter {
	return Default().Counter("commongraph_queries_total", helpQueries, "strategy", strategy)
}

// QueryErrors counts failed queries for one strategy slug.
func QueryErrors(strategy string) *Counter {
	return Default().Counter("commongraph_query_errors_total", helpQueryErrs, "strategy", strategy)
}

// AdditionsStreamed counts streamed addition-batch edges.
func AdditionsStreamed(strategy string) *Counter {
	return Default().Counter("commongraph_additions_streamed_total", helpAdds, "strategy", strategy)
}

// DeletionsStreamed counts streamed deletion-batch edges.
func DeletionsStreamed(strategy string) *Counter {
	return Default().Counter("commongraph_deletions_streamed_total", helpDels, "strategy", strategy)
}

// SnapshotsEvaluated counts produced snapshot results.
func SnapshotsEvaluated(strategy string) *Counter {
	return Default().Counter("commongraph_snapshots_evaluated_total", helpSnaps, "strategy", strategy)
}

// HopSeconds is the per-hop latency histogram.
func HopSeconds(strategy string) *Histogram {
	return Default().Histogram("commongraph_hop_seconds", helpHops, nil, "strategy", strategy)
}

// Degradations counts subtree fallbacks (Options.Degrade).
func Degradations() *Counter {
	return Default().Counter("commongraph_degradations_total", helpDegraded)
}

// FaultFirings counts injected-fault firings per point.
func FaultFirings(point string) *Counter {
	return Default().Counter("commongraph_fault_injections_total", helpFaults, "point", point)
}

// WorkersBusy is the live executor occupancy gauge.
func WorkersBusy() *Gauge {
	return Default().Gauge("commongraph_workers_busy", helpWorkersBusy)
}

// MaintenanceRetries counts watcher transient-failure retries.
func MaintenanceRetries() *Counter {
	return Default().Counter("commongraph_maintenance_retries_total", helpRetries)
}

// MaintenanceOps counts completed maintenance steps per kind.
func MaintenanceOps(kind string) *Counter {
	return Default().Counter("commongraph_maintenance_ops_total", helpMaintOps, "kind", kind)
}

// MaintenanceErrors counts ultimately-failed maintenance steps per kind.
func MaintenanceErrors(kind string) *Counter {
	return Default().Counter("commongraph_maintenance_errors_total", helpMaintErrs, "kind", kind)
}

// IngestBatches counts closed ingest windows.
func IngestBatches() *Counter {
	return Default().Counter("commongraph_ingest_batches_total", helpIngBatches)
}

// IngestUpdates counts accepted raw updates.
func IngestUpdates() *Counter {
	return Default().Counter("commongraph_ingest_updates_total", helpIngUpdates)
}

// WALAppends counts durable-store WAL append (fsync) calls.
func WALAppends() *Counter {
	return Default().Counter("commongraph_store_wal_appends_total", helpWALAppends)
}

// WALBytes counts bytes appended to the durable-store WAL.
func WALBytes() *Counter {
	return Default().Counter("commongraph_store_wal_bytes_total", helpWALBytes)
}

// WALTruncations counts torn WAL tails dropped during recovery.
func WALTruncations() *Counter {
	return Default().Counter("commongraph_store_wal_truncations_total", helpWALTrunc)
}

// WALTrimFailures counts post-commit WAL rotations that failed after the
// manifest swap already committed the transition — tolerated, but a
// signal the log is accreting until the next successful rotation or open.
func WALTrimFailures() *Counter {
	return Default().Counter("commongraph_store_wal_trim_failures_total", helpWALTrimFail)
}

// SegmentWrites counts durable-store segment files written.
func SegmentWrites() *Counter {
	return Default().Counter("commongraph_store_segment_writes_total", helpSegWrites)
}

// SegmentBytes counts bytes written into durable-store segments.
func SegmentBytes() *Counter {
	return Default().Counter("commongraph_store_segment_bytes_total", helpSegBytes)
}

// SegmentLoads counts durable-store segment files loaded.
func SegmentLoads() *Counter {
	return Default().Counter("commongraph_store_segment_loads_total", helpSegLoads)
}

// Compactions counts durable-store base-fold compactions.
func Compactions() *Counter {
	return Default().Counter("commongraph_store_compactions_total", helpCompactions)
}

// FoldBacklogEdges is the size of the deferred slide compaction: the
// edges behind the watcher's window that are still in overlay segments.
func FoldBacklogEdges() *Gauge {
	return Default().Gauge("commongraph_store_fold_backlog_edges", helpFoldBacklog)
}

// CompactionGCFailures counts superseded segments compaction failed to
// delete (the next Open garbage-collects them, but disk is not being
// reclaimed in the meantime).
func CompactionGCFailures() *Counter {
	return Default().Counter("commongraph_store_compaction_gc_failures_total", helpCompactGC)
}

// RecoveredUpdates counts WAL records re-seeded by crash recovery.
func RecoveredUpdates() *Counter {
	return Default().Counter("commongraph_store_recovered_updates_total", helpRecovered)
}

// ReplFramesSent counts replication frames shipped, by frame type.
func ReplFramesSent(typ string) *Counter {
	return Default().Counter("commongraph_repl_frames_sent_total", helpReplFrames, "type", typ)
}

// ReplFramesReceived counts replication frames received, by frame type.
func ReplFramesReceived(typ string) *Counter {
	return Default().Counter("commongraph_repl_frames_received_total", helpReplFrameRecv, "type", typ)
}

// ReplBytes counts replication bytes shipped.
func ReplBytes() *Counter {
	return Default().Counter("commongraph_repl_bytes_total", helpReplBytes)
}

// ReplBatchesReplayed counts transitions replayed by followers.
func ReplBatchesReplayed() *Counter {
	return Default().Counter("commongraph_repl_batches_replayed_total", helpReplReplayed)
}

// ReplReconnects counts follower reconnect attempts.
func ReplReconnects() *Counter {
	return Default().Counter("commongraph_repl_reconnects_total", helpReplReconnects)
}

// ReplLagSeq is the follower's WAL-sequence staleness gauge.
func ReplLagSeq() *Gauge {
	return Default().Gauge("commongraph_repl_lag_seq", helpReplLagSeq)
}

// ReplLagWindows is the follower's committed-window staleness gauge.
func ReplLagWindows() *Gauge {
	return Default().Gauge("commongraph_repl_lag_windows", helpReplLagWindows)
}

// ReplFencings counts stores fenced by a higher epoch.
func ReplFencings() *Counter {
	return Default().Counter("commongraph_repl_fencings_total", helpReplFencings)
}

// ReplPromotions counts completed follower promotions.
func ReplPromotions() *Counter {
	return Default().Counter("commongraph_repl_promotions_total", helpReplPromotions)
}

// ReplSnapshotShips counts full-snapshot bootstraps shipped.
func ReplSnapshotShips() *Counter {
	return Default().Counter("commongraph_repl_snapshot_ships_total", helpReplSnapshots)
}

// ReplStaleReads counts follower reads past the staleness budget, by
// outcome ("served" when Options allow stale-marked results, "refused"
// for the fail-fast path).
func ReplStaleReads(outcome string) *Counter {
	return Default().Counter("commongraph_repl_stale_reads_total", helpReplStaleReads, "outcome", outcome)
}

// ServeRequests counts query-service requests per tenant and outcome.
func ServeRequests(tenant, outcome string) *Counter {
	return Default().Counter("commongraph_serve_requests_total", helpServeRequests,
		"tenant", tenant, "outcome", outcome)
}

// ServeQueueDepth is the queued-job gauge of the query service.
func ServeQueueDepth() *Gauge {
	return Default().Gauge("commongraph_serve_queue_depth", helpServeQueue)
}

// ServeInflight is the executing-job gauge of the query service.
func ServeInflight() *Gauge {
	return Default().Gauge("commongraph_serve_inflight", helpServeInflight)
}

// ServeLatency is the end-to-end request latency histogram.
func ServeLatency() *Histogram {
	return Default().Histogram("commongraph_serve_request_seconds", helpServeLatency, nil)
}

// ServeCacheEvents counts result-cache events by kind.
func ServeCacheEvents(event string) *Counter {
	return Default().Counter("commongraph_serve_result_cache_total", helpServeCache, "event", event)
}

// ServeICG counts ICG evaluations by the sharing layer, by kind. The
// overlap tests assert on the "solve" series: N concurrent
// overlapping-window queries must cost one solve.
func ServeICG(kind string) *Counter {
	return Default().Counter("commongraph_serve_icg_evaluations_total", helpServeICG, "kind", kind)
}

// ServePlanCache counts lookups of the window-plan memo (representation
// and schedule reuse) by outcome; a miss is a construction.
func ServePlanCache(event string) *Counter {
	return Default().Counter("commongraph_serve_plan_cache_total", helpServePlanCache, "event", event)
}

// TraceDropped counts events a full tracer buffer discarded.
func TraceDropped() *Counter {
	return Default().Counter("obs_trace_dropped_total", helpTraceDropped)
}

// SlowQueries counts threshold-crossing queries per strategy slug.
func SlowQueries(strategy string) *Counter {
	return Default().Counter("commongraph_slow_queries_total", helpSlowQueries, "strategy", strategy)
}

// IncidentsTotal counts incident triggers per reason (panic, fenced,
// stale).
func IncidentsTotal(reason string) *Counter {
	return Default().Counter("commongraph_incidents_total", helpIncidents, "reason", reason)
}

// Goroutines is the live-goroutine runtime gauge.
func Goroutines() *Gauge {
	return Default().Gauge("go_goroutines", helpGoroutines)
}

// HeapBytes is the live-heap runtime gauge.
func HeapBytes() *Gauge {
	return Default().Gauge("go_memstats_heap_objects_bytes", helpHeapBytes)
}

// GCPauseP99Seconds is the GC pause tail-latency runtime gauge.
func GCPauseP99Seconds() *FloatGauge {
	return Default().FloatGauge("go_gc_pause_p99_seconds", helpGCPauseP99)
}

// SchedLatencyP99Seconds is the scheduler-latency tail runtime gauge.
func SchedLatencyP99Seconds() *FloatGauge {
	return Default().FloatGauge("go_sched_latency_p99_seconds", helpSchedLatP99)
}

// GCCycles is the completed-GC-cycle runtime gauge.
func GCCycles() *Gauge {
	return Default().Gauge("go_gc_cycles_total", helpGCCycles)
}

// SegmentMaps counts segments opened as read-only memory mappings.
func SegmentMaps() *Counter {
	return Default().Counter("commongraph_store_segment_maps_total", helpSegMaps)
}

// SegmentMapBytes counts bytes memory-mapped from segment files.
func SegmentMapBytes() *Counter {
	return Default().Counter("commongraph_store_segment_map_bytes_total", helpSegMapBytes)
}

// SegmentMapScrubs counts on-demand CRC scrubs of mapped segments.
func SegmentMapScrubs() *Counter {
	return Default().Counter("commongraph_store_segment_map_scrubs_total", helpSegMapScrubs)
}

// SegmentMapScrubBytes counts bytes walked by mapped-segment CRC scrubs —
// the repo's page-fault proxy for cold mapped reads.
func SegmentMapScrubBytes() *Counter {
	return Default().Counter("commongraph_store_segment_map_scrub_bytes_total", helpSegScrubBy)
}

// ServeCacheAdmissionRejects counts result-cache inserts the admission
// policy refused because the estimated result size exceeded the budget.
func ServeCacheAdmissionRejects() *Counter {
	return Default().Counter("commongraph_serve_cache_admission_rejects_total", helpServeCacheAdm)
}
