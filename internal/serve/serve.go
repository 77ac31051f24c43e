// Package serve is the multi-tenant query service over shared evolving
// graphs: admission control with backpressure, per-tenant token-bucket
// quotas, a generation-keyed result cache invalidated by window commits,
// and — through the commongraph PlanCache — cross-query sharing of
// common-graph work among concurrent requests with overlapping windows.
// It speaks only the versioned api/v1 wire schema; cmd/cgserve mounts it
// next to the shared ops surface (obs.OpsMux).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/faults"
	"commongraph/internal/obs"
)

// Config tunes a Server. The zero value serves: GOMAXPROCS workers, a
// queue of 4x that, no tenant quotas, a 512-entry result cache, and
// cross-query sharing on.
type Config struct {
	// Workers bounds concurrently executing evaluations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests admitted beyond the executing ones —
	// waiting for a worker slot (0 = 4x Workers). Past it the service
	// sheds load with 429 + Retry-After instead of queueing unboundedly.
	QueueDepth int
	// TenantRate is each tenant's sustained request budget in requests
	// per second, enforced by a token bucket keyed on X-CG-Tenant.
	// 0 disables quotas.
	TenantRate float64
	// TenantBurst is the bucket capacity (0 = one second of TenantRate,
	// minimum 1).
	TenantBurst int
	// CacheEntries bounds the result cache (0 = 512; negative disables
	// caching).
	CacheEntries int
	// CacheMaxResultBytes refuses caching any result whose estimated
	// wire footprint exceeds this budget — the entry-counted LRU would
	// otherwise let one KeepValues sweep over a large window displace
	// hundreds of checksum-sized results. 0 = 4 MiB; negative = no
	// size gate. Rejections count in
	// commongraph_serve_cache_admission_rejects_total.
	CacheMaxResultBytes int64
	// CostPerMillionEdges debits each tenant's token bucket by this
	// many extra tokens per million edges the evaluation actually
	// examined (Result.EdgesEvaluated), settling real work against the
	// flat one-token admission charge. Buckets may go into bounded
	// debt: a tenant issuing huge queries waits longer, one that stays
	// under budget is unaffected. 0 keeps flat per-request quotas.
	CostPerMillionEdges float64
	// DisableSharing turns off the cross-query PlanCache — every request
	// then solves its own common graph (the bench's control arm).
	DisableSharing bool
	// DefaultStrategy is used when a request omits one. The zero value
	// (KickStarter, which a windowed service cannot serve anyway) means
	// DirectHopParallel.
	DefaultStrategy commongraph.Strategy
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheMaxResultBytes == 0 {
		c.CacheMaxResultBytes = 4 << 20
	}
	if c.DefaultStrategy == commongraph.KickStarter {
		c.DefaultStrategy = commongraph.DirectHopParallel
	}
	return c
}

// defaultTenant is the quota identity of requests without X-CG-Tenant.
const defaultTenant = "default"

// queueFullRetryAfter is the backoff hint on queue-full responses. Quota
// denials compute their own from the bucket's refill rate.
const queueFullRetryAfter = 500 * time.Millisecond

// Server is the query service. It implements http.Handler for the
// apiv1.RunPath endpoint; mount it on an obs.OpsMux next to /metrics and
// friends. A Server has no background goroutines — closing the HTTP
// server above it is a complete shutdown.
type Server struct {
	cfg    Config
	src    Source
	plan   *commongraph.PlanCache
	cache  *resultCache
	quotas *quotas
	slots  chan struct{}
	queued atomic.Int64
}

// New builds a Server over src. It registers the result-cache purge on
// the source's commit hook immediately.
func New(src Source, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		src:    src,
		quotas: newQuotas(cfg.TenantRate, cfg.TenantBurst),
		slots:  make(chan struct{}, cfg.Workers),
	}
	if !cfg.DisableSharing {
		s.plan = commongraph.NewPlanCache()
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheMaxResultBytes)
		src.OnCommit(func(uint64) { s.cache.purge() })
	}
	return s
}

// PlanCache exposes the cross-query sharing layer (nil when sharing is
// disabled) — cgbench reads its Stats for the shared-ICG ratio.
func (s *Server) PlanCache() *commongraph.PlanCache { return s.plan }

// Ready is a readiness probe for /readyz: not ready while the admission
// queue is saturated (a load balancer should stop sending here first).
func (s *Server) Ready() (bool, string) {
	q := s.queued.Load()
	if q >= int64(s.cfg.Workers+s.cfg.QueueDepth) {
		return false, fmt.Sprintf("admission queue saturated (%d in service)", q)
	}
	return true, "ok"
}

// ServeHTTP handles POST apiv1.RunPath.
func (s *Server) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tenant := r.Header.Get(apiv1.TenantHeader)
	if tenant == "" {
		tenant = defaultTenant
	}
	if r.Method != http.MethodPost {
		s.fail(rw, tenant, "bad_request", &apiv1.Error{
			Code: apiv1.CodeBadRequest, Message: "POST required", Status: http.StatusMethodNotAllowed,
		})
		return
	}
	var wreq apiv1.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&wreq); err != nil {
		s.fail(rw, tenant, "bad_request", &apiv1.Error{
			Code: apiv1.CodeBadRequest, Message: "bad JSON: " + err.Error(), Status: http.StatusBadRequest,
		})
		return
	}
	creq, win, werr := s.resolve(&wreq)
	if werr != nil {
		s.fail(rw, tenant, "bad_request", werr)
		return
	}

	// Quota before queue: a tenant over budget must not consume queue
	// slots other tenants could use.
	if ok, wait := s.quotas.allow(tenant); !ok {
		s.fail(rw, tenant, "quota", &apiv1.Error{
			Code:             apiv1.CodeQuotaExhausted,
			Message:          fmt.Sprintf("tenant %q over its %.3g req/s budget", tenant, s.cfg.TenantRate),
			RetryAfterMillis: wait.Milliseconds(),
			Status:           http.StatusTooManyRequests,
		})
		return
	}

	// The generation is read BEFORE the evaluation snapshots the window,
	// so a result is always at least as fresh as its cache key — a
	// commit racing the evaluation strands the entry on an old key that
	// no future lookup presents (see cacheKey).
	gen := s.src.Generation()
	key := cacheKey{
		algo: creq.Query.Algorithm.Name(), source: int(creq.Query.Source),
		window: win, strategy: creq.Strategy,
		keepValues: creq.Options.KeepValues, gen: gen,
	}
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			res.Cached = true
			obs.ServeRequests(tenant, "cache_hit").Inc()
			obs.ServeLatency().Observe(time.Since(start))
			writeJSON(rw, http.StatusOK, &res)
			return
		}
	}

	// Admission: bounded queue, then a worker slot. Announce the window
	// to the sharing layer before waiting — by the time a worker picks
	// this request up, every overlapping contemporary is visible and the
	// common-graph solves fold together.
	if q := s.queued.Add(1); q > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.fail(rw, tenant, "queue_full", &apiv1.Error{
			Code:             apiv1.CodeQueueFull,
			Message:          fmt.Sprintf("admission queue at capacity (%d in service)", q-1),
			RetryAfterMillis: queueFullRetryAfter.Milliseconds(),
			Status:           http.StatusTooManyRequests,
		})
		return
	}
	obs.ServeQueueDepth().Set(s.queued.Load())
	defer func() {
		s.queued.Add(-1)
		obs.ServeQueueDepth().Set(s.queued.Load())
	}()
	if s.plan != nil {
		release := s.plan.Announce(win)
		defer release()
	}

	ctx := r.Context()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.fail(rw, tenant, "canceled", &apiv1.Error{
			Code: apiv1.CodeCanceled, Message: "client went away while queued", Status: 499,
		})
		return
	}
	defer func() { <-s.slots }()
	obs.ServeInflight().Add(1)
	defer obs.ServeInflight().Add(-1)

	// One span per request, joined to the caller's trace when the wire
	// request carries one; the evaluation's own span tree nests below.
	if id, err := obs.ParseTraceID(wreq.Trace); err == nil && id != 0 {
		ctx = obs.ContextWithSpan(ctx, obs.SpanContext{Trace: id, Span: obs.SpanID(id)})
	}
	sp := obs.Active().StartRemote(obs.FromContext(ctx), "serve.request",
		obs.String("tenant", tenant),
		obs.String("algo", key.algo), obs.Int("source", key.source),
		obs.String("strategy", creq.Strategy.Slug()),
		obs.Int("from", win.From), obs.Int("to", win.To))
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	trace := ""
	if id := sp.TraceID(); id != 0 {
		trace = id.String()
	}

	creq.Options.Plan = s.plan
	res, err := s.src.Run(ctx, creq)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		werr := classify(err, ctx)
		werr.Trace = trace
		s.fail(rw, tenant, werr.Code, werr)
		return
	}

	// Cost settlement: the admission charge was one flat token; debit
	// the measured edge work so heavy queries drain their tenant's
	// budget in proportion. Cache hits never reach here — served from
	// memory, they cost only their flat token.
	if s.cfg.CostPerMillionEdges > 0 {
		s.quotas.debit(tenant, float64(res.EdgesEvaluated)/1e6*s.cfg.CostPerMillionEdges)
	}

	wres := toWire(res, gen, trace)
	// The injection point sits between the evaluation and the cache
	// insert: the invalidation race test commits a window right here and
	// proves the stale-keyed insert is unreachable.
	if s.cache != nil && faults.Check(faults.ServeCacheInsert) == nil {
		s.cache.put(key, wres)
	}
	obs.ServeRequests(tenant, "ok").Inc()
	obs.ServeLatency().Observe(time.Since(start))
	writeJSON(rw, http.StatusOK, &wres)
}

// resolve converts a wire request into an evaluation request against the
// source's current window.
func (s *Server) resolve(wreq *apiv1.RunRequest) (commongraph.Request, commongraph.Window, *apiv1.Error) {
	bad := func(format string, args ...any) (commongraph.Request, commongraph.Window, *apiv1.Error) {
		return commongraph.Request{}, commongraph.Window{}, &apiv1.Error{
			Code: apiv1.CodeBadRequest, Message: fmt.Sprintf(format, args...), Status: http.StatusBadRequest,
		}
	}
	algo, ok := commongraph.AlgorithmByName(wreq.Algorithm)
	if !ok {
		return bad("unknown algorithm %q (want BFS, SSSP, SSWP, SSNP or Viterbi)", wreq.Algorithm)
	}
	if wreq.Source < 0 || wreq.Source > math.MaxUint32 {
		return bad("source %d is not a vertex id", wreq.Source)
	}
	strategy := s.cfg.DefaultStrategy
	if wreq.Strategy != "" {
		var err error
		if strategy, err = commongraph.ParseStrategy(wreq.Strategy); err != nil {
			return bad("%v", err)
		}
	}
	from, to, fixed := s.src.Window()
	if from > to {
		return commongraph.Request{}, commongraph.Window{}, &apiv1.Error{
			Code: apiv1.CodeStale, Message: "no servable window yet (awaiting bootstrap)",
			Status: http.StatusServiceUnavailable,
		}
	}
	win := commongraph.Window{From: from, To: to}
	if wreq.Window != nil {
		req := commongraph.Window{From: wreq.Window.From, To: wreq.Window.To}
		if fixed && req != win {
			return bad("window [%d,%d] is maintained by the service (currently [%d,%d]); omit the window field",
				req.From, req.To, win.From, win.To)
		}
		win = req
	}
	if fixed {
		switch strategy {
		case commongraph.DirectHop, commongraph.DirectHopParallel,
			commongraph.WorkSharing, commongraph.WorkSharingParallel:
		default:
			return bad("strategy %s needs the full update stream; a windowed service serves only the CommonGraph strategies", strategy.Slug())
		}
	}
	return commongraph.Request{
		Query:    commongraph.Query{Algorithm: algo, Source: commongraph.VertexID(wreq.Source)},
		Window:   win,
		Strategy: strategy,
		Options:  commongraph.Options{KeepValues: wreq.KeepValues},
	}, win, nil
}

// classify maps evaluation failures onto the wire protocol.
func classify(err error, ctx context.Context) *apiv1.Error {
	switch {
	case errors.Is(err, commongraph.ErrStale):
		return &apiv1.Error{Code: apiv1.CodeStale, Message: err.Error(), Status: http.StatusServiceUnavailable}
	case ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			strings.Contains(err.Error(), context.Canceled.Error())):
		return &apiv1.Error{Code: apiv1.CodeCanceled, Message: err.Error(), Status: 499}
	case strings.Contains(err.Error(), "out of range") || strings.Contains(err.Error(), "invalid for store"):
		return &apiv1.Error{Code: apiv1.CodeBadRequest, Message: err.Error(), Status: http.StatusBadRequest}
	default:
		return &apiv1.Error{Code: apiv1.CodeInternal, Message: err.Error(), Status: http.StatusInternalServerError}
	}
}

// toWire converts an evaluation result to the v1 schema.
func toWire(res *commongraph.Result, gen uint64, trace string) apiv1.RunResult {
	out := apiv1.RunResult{
		Strategy:   res.Strategy.Slug(),
		Generation: gen,
		Stale:      res.Stale,
		Degraded:   res.Degraded,
		Trace:      trace,
		Snapshots:  make([]apiv1.Snapshot, 0, len(res.Snapshots)),
	}
	if n := len(res.Snapshots); n > 0 {
		out.Window = apiv1.Window{From: res.Snapshots[0].Index, To: res.Snapshots[n-1].Index}
	}
	for _, s := range res.Snapshots {
		ws := apiv1.Snapshot{Index: s.Index, Reached: s.Reached, Checksum: apiv1.Checksum(s.Checksum)}
		if s.Values != nil {
			ws.Values = make([]int64, len(s.Values))
			for i, v := range s.Values {
				ws.Values[i] = int64(v)
			}
		}
		out.Snapshots = append(out.Snapshots, ws)
	}
	return out
}

func (s *Server) fail(rw http.ResponseWriter, tenant, outcome string, werr *apiv1.Error) {
	obs.ServeRequests(tenant, outcome).Inc()
	if werr.RetryAfterMillis > 0 {
		secs := (werr.RetryAfterMillis + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		rw.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(rw, werr.Status, werr)
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v) //nolint:errcheck // client gone mid-write is its problem
}
