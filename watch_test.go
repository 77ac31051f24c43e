package commongraph

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"commongraph/internal/faults"
)

func TestWatcherTracksGrowth(t *testing.T) {
	g, _ := buildEvolving(t, 301, 8, 30, 30)
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if from, to := w.Window(); from != 0 || to != 3 {
		t.Fatalf("window [%d,%d]", from, to)
	}
	if w.CommonEdges() <= 0 {
		t.Fatal("no common edges")
	}
	q := Query{Algorithm: SSSP, Source: 0}
	for to := 4; to <= 8; to++ {
		if err := w.Append(); err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(context.Background(), Request{Query: q, Strategy: DirectHop})
		if err != nil {
			t.Fatal(err)
		}
		// Must match a fresh evaluation of the same window.
		fresh, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: to}, Strategy: DirectHop})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Snapshots) != len(fresh.Snapshots) {
			t.Fatalf("to=%d: %d vs %d snapshots", to, len(res.Snapshots), len(fresh.Snapshots))
		}
		for k := range res.Snapshots {
			if res.Snapshots[k].Checksum != fresh.Snapshots[k].Checksum ||
				res.Snapshots[k].Index != fresh.Snapshots[k].Index {
				t.Fatalf("to=%d snapshot %d differs from fresh evaluation", to, k)
			}
		}
	}
}

func TestWatcherSlide(t *testing.T) {
	g, _ := buildEvolving(t, 307, 8, 30, 30)
	w, err := g.Watch(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Algorithm: SSWP, Source: 0}
	for i := 0; i < 4; i++ {
		if err := w.Slide(); err != nil {
			t.Fatal(err)
		}
		from, to := w.Window()
		if to-from != 4 {
			t.Fatalf("slide changed width: [%d,%d]", from, to)
		}
		res, err := w.Run(context.Background(), Request{Query: q, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: from, To: to}, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		for k := range res.Snapshots {
			if res.Snapshots[k].Checksum != fresh.Snapshots[k].Checksum {
				t.Fatalf("slide %d snapshot %d differs", i, k)
			}
		}
		// The first, a middle and the last slid window against the oracle
		// on whole snapshots, not only against another CommonGraph run.
		if i == 0 || i == 2 || i == 3 {
			res, err := w.Run(context.Background(), Request{Query: q, Strategy: DirectHop, Options: Options{KeepValues: true}})
			if err != nil {
				t.Fatal(err)
			}
			for k, snap := range res.Snapshots {
				if snap.Index != from+k || !reflect.DeepEqual(snap.Values, referenceValues(t, g, from+k, q)) {
					t.Fatalf("slide %d snapshot %d differs from engine.Reference", i, from+k)
				}
			}
		}
	}
}

func TestWatcherRejections(t *testing.T) {
	g, _ := buildEvolving(t, 311, 3, 20, 20)
	if _, err := g.Watch(2, 9); err == nil {
		t.Fatal("bad window accepted")
	}
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(); err == nil {
		t.Fatal("append past the latest snapshot should fail")
	}
	if _, err := w.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Strategy: KickStarter}); err == nil {
		t.Fatal("watcher should reject the streaming strategy")
	}
	if _, err := w.Run(context.Background(), Request{Query: Query{Source: 0}, Strategy: DirectHop}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

func TestWorkSharingParallelStrategy(t *testing.T) {
	g, _ := buildEvolving(t, 313, 6, 35, 35)
	q := Query{Algorithm: SSNP, Source: 0}
	seq, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 6}, Strategy: WorkSharing})
	if err != nil {
		t.Fatal(err)
	}
	par, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 6}, Strategy: WorkSharingParallel})
	if err != nil {
		t.Fatal(err)
	}
	if par.Strategy.String() != "Work-Sharing(parallel)" {
		t.Fatalf("name %q", par.Strategy.String())
	}
	for k := range seq.Snapshots {
		if seq.Snapshots[k].Checksum != par.Snapshots[k].Checksum {
			t.Fatalf("snapshot %d differs", k)
		}
	}
	if par.MaxHopTime <= 0 {
		t.Fatal("parallel work sharing should report the longest subtree")
	}
}

func TestEvaluateMulti(t *testing.T) {
	g, _ := buildEvolving(t, 317, 5, 30, 30)
	queries := []Query{
		{Algorithm: BFS, Source: 0},
		{Algorithm: SSSP, Source: 3},
		{Algorithm: Viterbi, Source: 0},
	}
	multi, err := g.RunMulti(context.Background(), queries, Window{From: 0, To: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3 {
		t.Fatalf("results=%d", len(multi))
	}
	for i, q := range queries {
		single, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 5}, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		for k := range single.Snapshots {
			if single.Snapshots[k].Checksum != multi[i].Snapshots[k].Checksum {
				t.Fatalf("query %d snapshot %d differs", i, k)
			}
		}
	}
	// Validation.
	if _, err := g.RunMulti(context.Background(), []Query{{Source: 0}}, Window{From: 0, To: 5}, Options{}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := g.RunMulti(context.Background(), queries, Window{From: 0, To: 99}, Options{}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestIndependentStrategyAgrees(t *testing.T) {
	g, _ := buildEvolving(t, 331, 5, 30, 30)
	q := Query{Algorithm: SSSP, Source: 0}
	ind, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 5}, Strategy: Independent})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Strategy != Independent || ind.Strategy.String() != "Independent" {
		t.Fatalf("strategy metadata wrong: %v", ind.Strategy)
	}
	ks, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 5}, Strategy: KickStarter})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ind.Snapshots {
		if ind.Snapshots[k].Checksum != ks.Snapshots[k].Checksum {
			t.Fatalf("independent disagrees at snapshot %d", k)
		}
		if ind.Snapshots[k].Index != k {
			t.Fatalf("snapshot %d has index %d", k, ind.Snapshots[k].Index)
		}
	}
	if ind.AdditionsProcessed != 0 || ind.DeletionsProcessed != 0 {
		t.Fatal("independent evaluation streams no batches")
	}
	// Sub-window indices must be absolute.
	sub, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 2, To: 4}, Strategy: Independent})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Snapshots[0].Index != 2 {
		t.Fatalf("sub-window index %d", sub.Snapshots[0].Index)
	}
}

// TestWatcherCloseInterruptsRetryBackoff pins the maintenance-retry
// liveness contract: a maintenance step backing off between transient
// retries sleeps on the watcher's lifecycle context, so Close interrupts
// the wait immediately instead of letting it run its full duration.
func TestWatcherCloseInterruptsRetryBackoff(t *testing.T) {
	g, _ := buildEvolving(t, 271, 4, 20, 20)
	w, err := g.Watch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long backoff: the test passes only if Close cuts it short.
	w.SetRetry(RetryPolicy{Attempts: 3, Backoff: time.Hour})
	defer faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.CoreMaintainAppend, Transient: true, Times: 5},
	}})()
	done := make(chan error, 1)
	go func() { done <- w.Append() }()
	// Let Append fail its first attempt and enter the backoff sleep.
	deadline := time.Now().Add(5 * time.Second)
	for faults.Hits(faults.CoreMaintainAppend) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if faults.Hits(faults.CoreMaintainAppend) == 0 {
		t.Fatal("injected maintenance fault never fired")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case aerr := <-done:
		if aerr == nil {
			t.Fatal("Append succeeded although every attempt was set to fail")
		}
		if !strings.Contains(aerr.Error(), "interrupted by Close") {
			t.Fatalf("Append error %v, want the interrupted-by-Close wrap", aerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append still parked in retry backoff after Close")
	}
}

// TestMetricsServerCloseUnblocksIdleConn is the regression test for the
// ops-server hardening: Close severs connections that never sent a
// request, so a stalled client cannot keep shutdown from completing.
func TestMetricsServerCloseUnblocksIdleConn(t *testing.T) {
	g, _ := buildEvolving(t, 281, 2, 10, 10)
	w, err := g.Watch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m, err := w.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Open a raw connection and send nothing — an idle client.
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, rerr := conn.Read(buf)
		readErr <- rerr
	}()
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case rerr := <-readErr:
		if rerr == nil {
			t.Fatal("idle connection received data instead of being severed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the idle connection open")
	}
}
