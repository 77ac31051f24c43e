package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"commongraph"
	apiv1 "commongraph/api/v1"
)

// serve-mix is the cgserve read path: a static graph behind the query
// service and a request mix whose median is a result-cache hit and whose
// p90 is a full evaluation.
//
// One closed-loop client sends everything that is timed. With two,
// whether two requests are in flight together decides how much work each
// does: the PlanCache widens a solve to the union of the overlapping
// windows announced at that moment and then derives each request's own
// state from it. From one
// input, 906 to 954 of 1 350 misses took that path, allocation per
// request moved by 4 % and throughput by 11 % between runs; with one
// client the work per request is exact (alloc_mb_per_op repeats to four
// digits). The traced phase ends with a two-client pass that feeds the
// sharing and admission counters only.
const (
	serveSnapshots = 24
	serveUpdates   = 1500

	hotKeys      = 48 // the hot set the cache-hit requests draw from
	serveWinSpan = 12 // width of the six overlapping windows

	// The request mix, exact in every block of 50 requests so that two
	// seeds differ in order and sources but not in composition.
	mixBlock  = 50
	mixHot    = 35 // 70 %: Zipf-skewed draws from the hot set
	mixMiss   = 14 // 28 %: a never-seen source on an overlapping window
	mixKeepKV = 1  //  2 %: a never-seen source with keep_values, narrow window
)

// serveWindows are six pairwise-overlapping windows: every pair shares a
// snapshot, so the PlanCache can serve one window's common graph from
// another's. keepValuesWindow is the width-4 window of the keep_values
// requests.
func serveWindows() []apiv1.Window {
	ws := make([]apiv1.Window, 6)
	for i := range ws {
		ws[i] = apiv1.Window{From: 2 * i, To: 2*i + serveWinSpan - 1}
	}
	return ws
}

var keepValuesWindow = apiv1.Window{From: 10, To: 13}

type serveInputs struct {
	h *history
	// reqs is the hot set once (the warm-up: set-up touches every hot key,
	// so in the timed phase a hot request is a hit), then the ops.
	reqs []apiv1.RunRequest
}

func generateServeMix(cfg runConfig, ops, period int) (inputs, error) {
	h, err := generateHistory(cfg.seed, 0x7376, serveSnapshots-1, serveUpdates)
	if err != nil {
		return nil, err
	}
	pool, err := sourcePool(h, hotKeys+ops, mix(cfg.seed, 0x706f6f6c))
	if err != nil {
		return nil, err
	}
	algos := commongraph.Algorithms()
	wins := serveWindows()
	reqs := make([]apiv1.RunRequest, hotKeys, hotKeys+ops)
	for k := range reqs {
		w := wins[k%len(wins)]
		reqs[k] = apiv1.RunRequest{Algorithm: algos[k%len(algos)].Name(), Source: int(pool[k]), Window: &w}
	}
	hot := reqs[:hotKeys:hotKeys]
	fresh := pool[hotKeys:] // each used at most once: a source no request has named

	// Zipf(1) over the hot set: key k is drawn in proportion to 1/(k+1).
	cdf := make([]float64, hotKeys)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	// kinds is the request kind at each position of a period, stratum by
	// stratum: 0 hot, 1 miss, 2 keep_values. The pattern repeats every
	// period (and a period holds a whole number of algorithm x window
	// rotations), so position k is the same kind of request in every
	// block of the timed phase; only the sources differ.
	r := probeGenRNG(mix(cfg.seed, 0x72657173))
	kinds := make([]int, 0, period+mixBlock)
	for len(kinds) < period {
		stratum := make([]int, mixBlock)
		for i := range stratum {
			switch {
			case i < mixHot:
				stratum[i] = 0
			case i < mixHot+mixMiss:
				stratum[i] = 1
			default:
				stratum[i] = 2
			}
		}
		for i := len(stratum) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			stratum[i], stratum[j] = stratum[j], stratum[i]
		}
		kinds = append(kinds, stratum...)
	}
	misses, keeps := 0, 0
	for i := 0; i < ops; i++ {
		src := int(fresh[i])
		switch kinds[i%period] {
		case 0:
			x := r.Float64() * sum
			k := 0
			for cdf[k] < x {
				k++
			}
			reqs = append(reqs, hot[k])
		case 1:
			w := wins[(misses/len(algos))%len(wins)]
			reqs = append(reqs, apiv1.RunRequest{Algorithm: algos[misses%len(algos)].Name(), Source: src, Window: &w})
			misses++
		default:
			w := keepValuesWindow
			reqs = append(reqs, apiv1.RunRequest{Algorithm: algos[keeps%len(algos)].Name(), Source: src, Window: &w, KeepValues: true})
			keeps++
		}
	}
	return &serveInputs{h: h, reqs: reqs}, nil
}

func (in *serveInputs) fingerprints(n int) []string {
	f := newFingerprint()
	for _, q := range in.reqs[:hotKeys+n] {
		f.h.Write([]byte(q.Algorithm))
		f.u64(uint64(q.Source))
		f.u64(uint64(q.Window.From)<<32 | uint64(q.Window.To))
		if q.KeepValues {
			f.u64(1)
		}
	}
	return []string{in.h.edgeFingerprint(), "requests=" + f.hex()}
}

func (in *serveInputs) setUp(cfg runConfig, probe *report) (instance, error) {
	g, err := in.h.graph(len(in.h.trs))
	if err != nil {
		return nil, err
	}
	inst := &serveInstance{in: in, g: g, sv: probeServeGraph(g)}
	if inst.client, err = inst.sv.client(); err != nil {
		inst.sv.close()
		return nil, err
	}
	for i := 0; i < hotKeys; i++ {
		if _, err := inst.client.Run(background(), &in.reqs[i]); err != nil {
			inst.sv.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	inst.next = hotKeys
	return inst, nil
}

type serveInstance struct {
	in     *serveInputs
	g      *commongraph.EvolvingGraph
	sv     *served
	client *apiv1.Client
	next   int // the first request of the stream not yet sent
}

// servedOp is a request of the stream and what it came back with.
type servedOp struct {
	req *apiv1.RunRequest
	res *apiv1.RunResult
	err error
}

// take hands out the next n requests of the stream.
func (s *serveInstance) take(n int) []servedOp {
	ops := make([]servedOp, n)
	for i := range ops {
		ops[i].req = &s.in.reqs[s.next+i]
	}
	s.next += n
	return ops
}

func wireChecksums(res *apiv1.RunResult) []uint64 {
	out := make([]uint64, len(res.Snapshots))
	for i, s := range res.Snapshots {
		out[i] = uint64(s.Checksum)
	}
	return out
}

// requestKey is the identity under which two responses must agree.
func requestKey(q *apiv1.RunRequest, res *apiv1.RunResult) string {
	return fmt.Sprintf("%s/%d/%d-%d/%t/%d", q.Algorithm, q.Source, res.Window.From, res.Window.To, q.KeepValues, res.Generation)
}

// isRejected reports a 429: the service refused the request.
func isRejected(err error) bool {
	var werr *apiv1.Error
	return errors.As(err, &werr) && werr.Status == http.StatusTooManyRequests
}

// pass sends the next blocks x blockOps requests of the stream.
func (s *serveInstance) pass(blocks, blockOps int, rec *recorder, rep *report) (phase, []servedOp) {
	ops := s.take(blocks * blockOps)
	ph := runBlocks(blocks, blockOps, func(i int) {
		id := rec.begin("serve.request", -1, i)
		ops[i].res, ops[i].err = s.client.Run(background(), ops[i].req)
		rec.end(id)
	}, 0, nil)
	check(ops, rep)
	return ph, ops
}

// check counts the requests and fails those that errored, were refused or
// answered another window.
func check(ops []servedOp, rep *report) {
	rep.attempted += len(ops)
	agree := agreement{}
	for _, op := range ops {
		q := op.req
		switch {
		case op.err != nil:
			rep.fail("%s from %d: %v", q.Algorithm, q.Source, op.err)
		case len(op.res.Snapshots) != q.Window.To-q.Window.From+1:
			rep.fail("%s from %d: %d snapshots for window [%d,%d]", q.Algorithm, q.Source, len(op.res.Snapshots), q.Window.From, q.Window.To)
		default:
			agree.check(requestKey(q, op.res), vectorHash(wireChecksums(op.res)), rep)
		}
	}
}

// shared sends the next n requests of the stream from two closed-loop
// clients that take them in turn, as ISSUE 11 drew the load.
// Only here are two requests in flight together, so only here can the
// PlanCache share a common-graph solve between overlapping windows or
// admission refuse a request. How often it does depends on which requests
// meet, so this pass feeds counters and no timing.
func (s *serveInstance) shared(n int, rep *report) (rejected int, err error) {
	const clients = 2
	ops := s.take(n)
	var lanes [clients][]*servedOp
	for i := range ops {
		lanes[i%clients] = append(lanes[i%clients], &ops[i])
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		client, err := s.sv.client()
		if err != nil {
			wg.Wait()
			return 0, err
		}
		wg.Add(1)
		go func(lane []*servedOp) {
			defer wg.Done()
			sendAll(client, lane)
		}(lane)
	}
	wg.Wait()
	check(ops, rep)
	for _, op := range ops {
		if isRejected(op.err) {
			rejected++
		}
	}
	return rejected, nil
}

// sendAll is one closed-loop client: it sends its requests one after
// another.
func sendAll(client *apiv1.Client, lane []*servedOp) {
	for _, op := range lane {
		op.res, op.err = client.Run(background(), op.req)
	}
}

func (s *serveInstance) timed(blocks, blockOps int, rep *report) phase {
	ph, _ := s.pass(blocks, blockOps, nil, rep)
	return ph
}

// verify asks once more for the first hot key of each algorithm, off the
// clock, and checks the first, middle and last snapshot of its window
// against the reference.
func (s *serveInstance) verify(rep *report) {
	seen := map[string]bool{}
	for i := range s.in.reqs {
		q := &s.in.reqs[i]
		if seen[q.Algorithm] {
			continue
		}
		seen[q.Algorithm] = true
		res, err := s.client.Run(background(), q)
		if err != nil {
			rep.attempted++
			rep.fail("verify: %s from %d: %v", q.Algorithm, q.Source, err)
			continue
		}
		algo, _ := commongraph.AlgorithmByName(q.Algorithm)
		query := commongraph.Query{Algorithm: algo, Source: commongraph.VertexID(q.Source)}
		from, to := res.Window.From, res.Window.To
		for _, idx := range []int{from, (from + to) / 2, to} {
			rep.attempted++
			edges, err := s.g.Snapshot(idx)
			if err != nil {
				rep.fail("verify: snapshot %d: %v", idx, err)
				continue
			}
			got := uint64(res.Snapshots[idx-from].Checksum)
			if want := probeReferenceChecksum(s.in.h.n, edges, query); got != want {
				rep.fail("verify: %s from %d at snapshot %d: checksum %016x, reference %016x", q.Algorithm, q.Source, idx, got, want)
			}
		}
		if len(seen) == len(commongraph.Algorithms()) {
			break
		}
	}
}

func (s *serveInstance) traced(n int, untraced phase, rec *recorder, rep *report) {
	traced, ops := s.pass(1, n, rec, rep)
	solves0, reused0 := s.sv.icg()
	rejected, err := s.shared(n, rep)
	if err != nil {
		rep.attempted++
		rep.fail("two-client pass: %v", err)
	}
	solves1, reused1 := s.sv.icg()

	var hit, miss, kv []float64
	for i, op := range ops {
		lat := ms(traced.lat[i])
		switch {
		case op.err != nil:
		case op.res.Cached:
			hit = append(hit, lat)
		case op.req.KeepValues:
			kv = append(kv, lat)
			miss = append(miss, lat)
		default:
			miss = append(miss, lat)
		}
	}
	rep.layer("serve.hit_ms", quantile(hit, 0.5), "")
	rep.layer("serve.miss_ms", quantile(miss, 0.5), "")
	rep.layer("serve.hit_share", float64(len(hit))/float64(n), "")
	rep.layer("serve.icg_solves", float64(solves1-solves0), "two clients")
	rep.layer("serve.icg_reused", float64(reused1-reused0), "two clients")
	rep.layer("serve.rejected", float64(rejected), "two clients")
	rep.layer("serve.request_ms", traced.p50(), "")
	rep.layer("apiv1.keep_values_ms", quantile(kv, 0.5), "")
	rep.layer("trace.overhead_ratio", traced.p50()/untraced.p50(), "")
	// The request is the only layer boundary this workload crosses from
	// outside, so its span is the whole op and nothing is unattributed.
	_, self := rec.layerTimes()
	rep.layer("trace.unattributed_ms", unattributedMS(traced.p50(), self), "")
	rep.note("traced phase: %d requests, then %d from two clients; hits=%d misses=%d keep_values=%d; base: untraced p50 %.4f ms over the %d requests before",
		n, n, len(hit), len(miss), len(kv), untraced.p50(), len(untraced.lat))
}

func (s *serveInstance) close() error {
	s.sv.close()
	return nil
}
