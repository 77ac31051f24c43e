package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"commongraph/internal/obs"
)

// each runs the evaluation's n independent units and folds their
// accounting into the result. At width 1 they run in order on the calling
// goroutine, straight into the result, and the first failure stops the
// loop. Wider, every unit gets a goroutine — x.width of them in flight at
// a time — that is panic-contained (a panic becomes the unit's
// *PanicError), labelled for CPU profiles, and accounts into a Result of
// its own that is merged when the unit succeeds; once a unit has failed
// the evaluation is lost, so units not yet started are skipped. Unit
// failures join into one error; the caller never returns a partial result.
func (x *execution) each(n int, unit func(i int, acc *Result) error) error {
	hops := obs.HopSeconds(x.label)
	if x.width == 1 {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := unit(i, x.res); err != nil {
				return err
			}
			x.res.unitDone(hops, time.Since(start))
		}
		return nil
	}
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	errs := make([]error, n)
	sem := make(chan struct{}, x.width)
	busy := obs.WorkersBusy()
	ctx := executorCtx(x.cfg)
	labels := pprof.Labels("cg_executor", x.label)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each unit owns slot i of errs, so the writes are disjoint and
			// need no lock; wg.Wait publishes them.
			var err error
			defer func() {
				if err != nil {
					failed.Store(true)
				}
				errs[i] = err
			}()
			defer recoverToError(&err)
			sem <- struct{}{}
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			busy.Add(1)
			defer busy.Add(-1)
			acc := &Result{}
			start := time.Now()
			pprof.Do(ctx, labels, func(context.Context) { err = unit(i, acc) })
			if err != nil {
				return
			}
			d := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			x.res.absorb(acc)
			x.res.unitDone(hops, d)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// isolatedSubtree is one unit of a concurrent strategy — a hop, or a root
// subtree: walked from its own clone of the base state under its own
// "subtree" span (a fresh trace track, showing real overlap with sibling
// units) and panic-contained, so that with Config.Degrade a failed walk —
// an error, or a panic in the engine, the overlay algebra or an armed
// fault — is recomputed along the star from the untouched base state
// instead of failing the evaluation. If the fallback fails too, both
// causes are returned.
func (x *execution) isolatedSubtree(root *ScheduleNode, e *ScheduleEdge, acc *Result) error {
	err := func() (err error) {
		defer recoverToError(&err)
		sp := x.cfg.Trace.Fork("subtree")
		if sp != nil {
			sp.SetAttr(obs.String("root", nodeRef(e.To)))
		}
		defer sp.End()
		return x.walkSubtree(root, e, childState(x.base, false, acc), sp, acc)
	}()
	if err == nil || !x.cfg.Degrade || isCancellation(err) {
		return err
	}
	leaves := subtreeLeaves(e)
	if degErr := x.degradeSubtree(e, leaves, acc); degErr != nil {
		return errors.Join(err, degErr)
	}
	obs.Degradations().Inc()
	if tr := x.cfg.Trace.Tracer(); tr != nil {
		tr.Event("degrade", obs.String("subtree", nodeRef(e.To)))
	}
	for _, k := range leaves {
		acc.degrade(k, err)
	}
	return nil
}

// degradeSubtree recomputes the snapshots below a failed schedule edge by
// walking their star edges from the base state (§3.1): the per-leaf
// batches are already materialized canonically in the representation, so
// the fallback shares nothing with the failed walk. It is itself
// panic-contained and cancellable, and its snapshot values are exact —
// degradation loses only the work sharing, never correctness.
func (x *execution) degradeSubtree(e *ScheduleEdge, leaves []int, acc *Result) (err error) {
	defer recoverToError(&err)
	sp := x.cfg.Trace.Fork("subtree.degrade")
	if sp != nil {
		sp.SetAttr(obs.String("root", nodeRef(e.To)))
	}
	defer sp.End()
	star := x.rep.star().Root
	for _, k := range leaves {
		if err := x.walkSubtree(star, star.Edges[k], childState(x.base, false, acc), sp, acc); err != nil {
			return err
		}
	}
	return nil
}

// subtreeLeaves collects the window-relative snapshot indices at or below
// the destination of a schedule edge.
func subtreeLeaves(e *ScheduleEdge) []int {
	var out []int
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		if n.IsLeaf() {
			out = append(out, n.I)
			return
		}
		for _, ce := range n.Edges {
			walk(ce.To)
		}
	}
	walk(e.To)
	return out
}
