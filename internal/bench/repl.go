package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
	"commongraph/internal/kickstarter"
	"commongraph/internal/repl"
	"commongraph/internal/store"
)

// Replication measures the WAL-shipping pipeline end to end over an
// in-process pipe: how long a cold follower takes to bootstrap from a
// shipped snapshot plus history replay, the commit-to-applied latency of
// live transitions while the follower concurrently serves BFS reads
// (the mixed read/write profile of a read replica), and what those
// follower reads cost relative to the same read on the primary.
func Replication(p Params) (*Table, error) {
	t := &Table{
		ID:    "Replication",
		Title: "cgrepl WAL shipping: bootstrap, live ship latency, reads under replication",
		Header: []string{"Graph", "Edges", "Bootstrap", "Ship/win p50", "Ship/win max",
			"FollowerBFS", "PrimaryBFS", "Reads during ingest"},
	}
	const history = 3 // transitions committed before the follower joins
	const live = 3    // transitions shipped while it serves reads
	b := p.Batch(50_000)
	for _, name := range []string{"LJ-sim", "DL-sim"} {
		w, err := BuildWorkload(name, p, history+live, b, b/4)
		if err != nil {
			return nil, err
		}
		row, err := measureReplication(w, p.src(), history, live)
		if err != nil {
			return nil, fmt.Errorf("bench: replication %s: %w", name, err)
		}
		t.AddRow(append([]string{name, fmt.Sprintf("%d", len(w.Base))}, row...)...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d history transitions replayed at bootstrap, %d shipped live, +%d/-%d edges each; transport is an in-process net.Pipe", history, live, b, b/4),
		"Ship/win = primary AppendBatch return to follower durably-applied; FollowerBFS runs concurrently with the live shipping",
	)
	return t, nil
}

func measureReplication(w *Workload, src graph.VertexID, history, live int) ([]string, error) {
	dir, err := os.MkdirTemp("", "cgbench-repl-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Primary: base plus the pre-join history.
	ps, err := store.Create(filepath.Join(dir, "primary"), w.N, w.Base)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	for tr := 0; tr < history; tr++ {
		if err := ps.AppendBatch(w.Store.Additions(tr).Edges(), w.Store.Deletions(tr).Edges(), 0); err != nil {
			return nil, err
		}
	}
	prim := repl.NewPrimary(ps, 2*time.Millisecond)
	defer prim.Close()

	applied := make(chan int, history+live+1)
	f, err := repl.OpenFollower(filepath.Join(dir, "replica"), repl.Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			c, s := net.Pipe()
			prim.Attach(s)
			return c, nil
		},
		Apply: func(transition int, adds, dels graph.EdgeList, walSeq uint64) error {
			applied <- transition
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//cgvet:ignore goleak -- catch-up loop exits when the deferred cancel fires; Follower.Close severs the conn first
	go f.Run(ctx) //nolint:errcheck // progress observed via applied; cancel ends it

	waitApplied := func(upTo int) error {
		deadline := time.After(2 * time.Minute)
		for {
			select {
			case tr := <-applied:
				if tr >= upTo {
					return nil
				}
			case <-deadline:
				return fmt.Errorf("follower never reached transition %d", upTo)
			}
		}
	}

	// Bootstrap: snapshot ship plus history replay, to durably applied.
	start := time.Now()
	if err := waitApplied(history - 1); err != nil {
		return nil, err
	}
	bootstrap := time.Since(start)

	// Mixed phase: a reader hammers BFS on the follower's latest
	// materialized version while live transitions ship.
	var reads, stopReads atomic.Int64
	var followerBFS atomic.Int64
	readerDone := make(chan error, 1)
	go func() {
		for stopReads.Load() == 0 {
			d, err := followerRead(f, src)
			if err != nil {
				readerDone <- err
				return
			}
			followerBFS.Store(int64(d))
			reads.Add(1)
		}
		readerDone <- nil
	}()

	lats := make([]time.Duration, 0, live)
	for tr := history; tr < history+live; tr++ {
		t0 := time.Now()
		if err := ps.AppendBatch(w.Store.Additions(tr).Edges(), w.Store.Deletions(tr).Edges(), 0); err != nil {
			return nil, err
		}
		if err := waitApplied(tr); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	stopReads.Store(1)
	if err := <-readerDone; err != nil {
		return nil, err
	}
	if reads.Load() == 0 {
		// The live phase outran the first read; take one clean sample.
		d, err := followerRead(f, src)
		if err != nil {
			return nil, err
		}
		followerBFS.Store(int64(d))
		reads.Add(1)
	}

	primaryBFS, err := storeRead(ps, src)
	if err != nil {
		return nil, err
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return []string{
		secs(bootstrap),
		secs(lats[len(lats)/2]),
		secs(lats[len(lats)-1]),
		secs(time.Duration(followerBFS.Load())),
		secs(primaryBFS),
		fmt.Sprintf("%d", reads.Load()),
	}, nil
}

// followerRead times one BFS over the follower's latest durable version.
func followerRead(f *repl.Follower, src graph.VertexID) (time.Duration, error) {
	st := f.Store()
	if st == nil {
		return 0, fmt.Errorf("follower has no store yet")
	}
	return storeRead(st, src)
}

// storeRead materializes the store's newest snapshot version and runs a
// BFS from src — the read path of a serving replica.
func storeRead(st *store.Store, src graph.VertexID) (time.Duration, error) {
	start := time.Now()
	snap, err := st.Snapshot()
	if err != nil {
		return 0, err
	}
	edges, err := snap.GetVersion(snap.NumVersions() - 1)
	if err != nil {
		return 0, err
	}
	kickstarter.New(st.NumVertices(), edges, algo.BFS{}, src, engine.Options{})
	return time.Since(start), nil
}
