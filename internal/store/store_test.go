package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"commongraph/internal/faults"
	"commongraph/internal/graph"
)

func e(s, d graph.VertexID, w graph.Weight) graph.Edge { return graph.Edge{Src: s, Dst: d, W: w} }

func el(edges ...graph.Edge) graph.EdgeList {
	return graph.EdgeList(edges).Clone().Canonicalize()
}

// mustEqual compares two canonical edge lists.
func mustEqual(t *testing.T, got, want graph.EdgeList, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d\n got=%v\nwant=%v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// newTestStore creates a store with a small base and two transitions.
func newTestStore(t *testing.T) (dir string, base, a0, d0, a1, d1 graph.EdgeList) {
	t.Helper()
	dir = t.TempDir()
	base = el(e(0, 1, 1), e(1, 2, 2), e(2, 3, 3))
	a0, d0 = el(e(0, 2, 5)), el(e(2, 3, 3))
	a1, d1 = el(e(3, 4, 7), e(2, 3, 4)), el(e(0, 1, 1))
	s, err := Create(dir, 8, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(a0, d0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(a1, d1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, base, a0, d0, a1, d1
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir, base, a0, d0, a1, d1 := newTestStore(t)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumVertices() != 8 || s.Transitions() != 2 || s.BaseVersion() != 0 {
		t.Fatalf("shape: vertices=%d transitions=%d base=%d", s.NumVertices(), s.Transitions(), s.BaseVersion())
	}
	got, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, base, "base")
	ga0, gd0, err := s.Overlay(0)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, ga0, a0, "overlay 0 adds")
	mustEqual(t, gd0, d0, "overlay 0 dels")
	ga1, gd1, err := s.Overlay(1)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, ga1, a1, "overlay 1 adds")
	mustEqual(t, gd1, d1, "overlay 1 dels")

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumVersions() != 3 {
		t.Fatalf("snapshot store has %d versions, want 3", snap.NumVersions())
	}
	v2, err := snap.GetVersion(2)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.Union(graph.Minus(graph.Union(graph.Minus(base, d0), a0), d1), a1)
	mustEqual(t, v2, want, "materialized version 2")
}

func TestCreateRejectsExistingStore(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	if _, err := Create(dir, 8, nil); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
}

func TestOpenRejectsNonStore(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	path := filepath.Join(dir, baseName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir) // lazy loading: open itself reads only manifest + WAL
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Base(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt base segment: err=%v, want ErrCorrupt", err)
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest: err=%v, want ErrCorrupt", err)
	}
}

func TestOpenGarbageCollectsStrays(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	// Simulate interrupted writes: a torn future overlay, a torn future
	// base generation, and leftover temp files.
	strays := []string{overlayName(7), baseName(9), manifestTmpName, walTmpName}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "notes.txt") // not ours: must survive
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stray %s survived gc (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("gc removed a foreign file: %v", err)
	}
	if _, _, err := s.Overlay(1); err != nil {
		t.Fatalf("live overlay unreadable after gc: %v", err)
	}
}

func TestCompaction(t *testing.T) {
	dir, base, a0, d0, a1, d1 := newTestStore(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	v1 := graph.Union(graph.Minus(base, d0), a0)
	v2 := graph.Union(graph.Minus(v1, d1), a1)

	if err := s.CompactTo(0); err != nil {
		t.Fatalf("no-op compaction: %v", err)
	}
	if err := s.CompactTo(1); err != nil {
		t.Fatal(err)
	}
	if s.BaseVersion() != 1 || s.Transitions() != 2 {
		t.Fatalf("after compact: base=%d transitions=%d", s.BaseVersion(), s.Transitions())
	}
	got, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, v1, "compacted base")
	if _, _, err := s.Overlay(0); err == nil {
		t.Fatal("folded overlay 0 still readable")
	}
	if _, err := os.Stat(filepath.Join(dir, overlayName(0))); !os.IsNotExist(err) {
		t.Fatal("folded overlay file not removed")
	}
	if _, err := os.Stat(filepath.Join(dir, baseName(0))); !os.IsNotExist(err) {
		t.Fatal("old base generation not removed")
	}

	// The store can keep appending after compaction, and a reopen sees
	// the folded state.
	a2 := el(e(5, 6, 1))
	if err := s.AppendBatch(a2, nil, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 1 || r.BaseVersion() != 1 || r.Transitions() != 3 {
		t.Fatalf("reopen after compact: origin=%d base=%d transitions=%d", r.Origin(), r.BaseVersion(), r.Transitions())
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The reopened store's version 0 is absolute version 1.
	g0, err := snap.GetVersion(0)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, g0, v1, "reopened version 0 (= absolute 1)")
	g2, err := snap.GetVersion(2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, g2, graph.Union(v2, a2), "reopened version 2 (= absolute 3)")
}

// TestCompactionWritesBaseOutsideTheLock: the new base file is written
// with the store lock released, so a commit arriving at that moment goes
// through instead of waiting out the write (here it runs on the folding
// goroutine itself, from the segment write's fault-point observer: under
// the lock it would deadlock). A store fenced at that moment refuses the
// swap and removes the base file no manifest names.
func TestCompactionWritesBaseOutsideTheLock(t *testing.T) {
	// duringBaseWrite arms f to run at the fold's base-segment write.
	duringBaseWrite := func(f func()) (disarm func()) {
		return faults.Arm(&faults.Plan{Observer: func(p faults.Point, hit int) {
			if p == faults.StoreSegmentWrite && hit == 1 {
				f()
			}
		}})
	}
	t.Run("commit", func(t *testing.T) {
		dir, base, a0, d0, a1, d1 := newTestStore(t)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		a2 := el(e(5, 6, 1))
		us := []RawUpdate{{Op: RawAdd, Edge: e(6, 7, 2)}}
		disarm := duringBaseWrite(func() {
			if err := s.AppendBatch(a2, nil, 0); err != nil {
				t.Errorf("commit during the fold: %v", err)
			}
			if err := s.Journal(us); err != nil {
				t.Errorf("journal during the fold: %v", err)
			}
		})
		err = s.CompactTo(2)
		disarm()
		if err != nil {
			t.Fatal(err)
		}
		if s.BaseVersion() != 2 || s.Transitions() != 3 {
			t.Fatalf("after the fold: base=%d transitions=%d, want 2 and 3", s.BaseVersion(), s.Transitions())
		}
		s.Close()
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		v2 := graph.Union(graph.Minus(graph.Union(graph.Minus(base, d0), a0), d1), a1)
		for v, want := range []graph.EdgeList{v2, graph.Union(v2, a2)} {
			got, err := snap.GetVersion(v)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, got, want, "reopened version")
		}
		if p := r.TakePending(); len(p) != 1 || p[0].Edge != us[0].Edge {
			t.Fatalf("journaled update lost across the fold: %+v", p)
		}
	})
	t.Run("fenced", func(t *testing.T) {
		dir, _, _, _, _, _ := newTestStore(t)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		disarm := duringBaseWrite(func() {
			if err := s.ObserveEpoch(7); !errors.Is(err, ErrFenced) {
				t.Errorf("ObserveEpoch = %v, want ErrFenced", err)
			}
		})
		err = s.CompactTo(2)
		disarm()
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("fold committed on a store fenced mid-write: %v", err)
		}
		if s.BaseVersion() != 0 {
			t.Fatalf("base version %d after a refused fold", s.BaseVersion())
		}
		if _, err := os.Stat(filepath.Join(dir, baseName(1))); !os.IsNotExist(err) {
			t.Fatalf("the refused fold left its base file behind (stat err %v)", err)
		}
		if _, err := os.Stat(filepath.Join(dir, baseName(0))); err != nil {
			t.Fatalf("the live base is gone: %v", err)
		}
	})
}

func TestCompactBeyondTransitionsFails(t *testing.T) {
	dir, _, _, _, _, _ := newTestStore(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CompactTo(3); err == nil {
		t.Fatal("compaction past the last transition succeeded")
	}
}

func TestJournalCommitAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4, el(e(0, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	us := []RawUpdate{
		{Op: RawAdd, Edge: e(1, 2, 2)},
		{Op: RawAdd, Edge: e(2, 3, 3)},
		{Op: RawDelete, Edge: e(0, 1, 1)},
	}
	if err := s.Journal(us); err != nil {
		t.Fatal(err)
	}
	if us[0].Seq != 1 || us[2].Seq != 3 {
		t.Fatalf("assigned seqs %d..%d, want 1..3", us[0].Seq, us[2].Seq)
	}
	// Commit the first two as a transition; the third stays pending.
	if err := s.AppendBatch(el(e(1, 2, 2), e(2, 3, 3)), nil, 2); err != nil {
		t.Fatal(err)
	}
	if s.WALSeq() != 2 {
		t.Fatalf("commit pointer %d, want 2", s.WALSeq())
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pending := r.TakePending()
	if len(pending) != 1 || pending[0].Seq != 3 || pending[0].Op != RawDelete || pending[0].Edge != e(0, 1, 1) {
		t.Fatalf("recovered pending = %+v, want the uncommitted delete at seq 3", pending)
	}
	if r.TakePending() != nil {
		t.Fatal("TakePending is not take-once")
	}
	// New journal appends continue the sequence, never reusing numbers.
	more := []RawUpdate{{Op: RawAdd, Edge: e(3, 0, 9)}}
	if err := r.Journal(more); err != nil {
		t.Fatal(err)
	}
	if more[0].Seq != 4 {
		t.Fatalf("post-recovery seq %d, want 4", more[0].Seq)
	}
}

func TestAppendBatchEmptyAdvancesCommitPointer(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A window that cancelled itself out: journaled records, no batch.
	us := []RawUpdate{
		{Op: RawAdd, Edge: e(0, 1, 1)},
		{Op: RawDelete, Edge: e(0, 1, 1)},
	}
	if err := s.Journal(us); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(nil, nil, 2); err != nil {
		t.Fatal(err)
	}
	if s.Transitions() != 0 {
		t.Fatalf("empty batch created transition: %d", s.Transitions())
	}
	s.Close()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p := r.TakePending(); len(p) != 0 {
		t.Fatalf("cancelled window still pending after commit: %+v", p)
	}
	if r.WALSeq() != 2 {
		t.Fatalf("commit pointer %d, want 2", r.WALSeq())
	}
}

func TestAppendBatchRejectsNonCanonical(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unsorted := graph.EdgeList{e(2, 3, 1), e(0, 1, 1)}
	if err := s.AppendBatch(unsorted, nil, 0); err == nil {
		t.Fatal("non-canonical batch accepted")
	}
}

// TestAppendBatchToleratesTrimFailure: once the manifest swap has
// committed a batch, a failure of the post-commit WAL rotation must not
// surface as an AppendBatch error — callers would retry and commit the
// transition twice. The stale records simply ride along until the next
// successful rotation or open drops them by sequence.
func TestAppendBatchToleratesTrimFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 8, el(e(0, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	us := []RawUpdate{{Op: RawAdd, Edge: e(1, 2, 2)}, {Op: RawAdd, Edge: e(2, 3, 3)}}
	if err := s.Journal(us); err != nil {
		t.Fatal(err)
	}
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreWALRotate, Times: 1}}})
	err = s.AppendBatch(el(e(1, 2, 2), e(2, 3, 3)), nil, us[1].Seq)
	disarm()
	if err != nil {
		t.Fatalf("AppendBatch surfaced a post-commit trim failure: %v", err)
	}
	if s.WALSeq() != us[1].Seq || s.Transitions() != 1 {
		t.Fatalf("commit state walSeq=%d transitions=%d, want %d and 1", s.WALSeq(), s.Transitions(), us[1].Seq)
	}
	// Journaling continues on the untrimmed file; a reopen drops the
	// committed records and surfaces only the new ones.
	more := []RawUpdate{{Op: RawAdd, Edge: e(3, 4, 4)}}
	if err := s.Journal(more); err != nil {
		t.Fatalf("journal after tolerated trim failure: %v", err)
	}
	s.Close()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.WALSeq() != us[1].Seq || r.Transitions() != 1 {
		t.Fatalf("reopen walSeq=%d transitions=%d, want %d and 1", r.WALSeq(), r.Transitions(), us[1].Seq)
	}
	p := r.TakePending()
	if len(p) != 1 || p[0].Seq != more[0].Seq {
		t.Fatalf("reopen pending %+v, want just the post-failure record (seq %d)", p, more[0].Seq)
	}
}

// TestKillPointRecoveryMatrix is the crash matrix: each durable-store
// write boundary is killed in turn (error injection standing in for the
// process dying at that syscall), the failed operation is observed, and
// the directory is reopened as a fresh process would. Every kill point
// must reopen to a consistent store: either the old state (kill before
// the manifest swap) or the new state (kill after), never anything
// partial.
func TestKillPointRecoveryMatrix(t *testing.T) {
	base := el(e(0, 1, 1), e(1, 2, 2))
	a0 := el(e(2, 3, 3))
	points := []faults.Point{
		faults.StoreWALAppend,
		faults.StoreWALSync,
		faults.StoreSegmentWrite,
		faults.StoreManifestSwap,
		faults.StoreWALRotate,
		faults.StoreCompact,
	}
	for _, p := range points {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, 8, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AppendBatch(a0, nil, 0); err != nil {
				t.Fatal(err)
			}

			disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: p, Times: 1}}})
			// Drive every protocol path; exactly the armed point fails.
			us := []RawUpdate{{Op: RawAdd, Edge: e(3, 4, 4)}, {Op: RawAdd, Edge: e(4, 5, 5)}}
			jErr := s.Journal(us)
			bErr := s.AppendBatch(el(e(3, 4, 4), e(4, 5, 5)), nil, 0)
			cErr := s.CompactTo(1)
			fired := faults.Hits(p) > 0
			disarm()
			if jErr == nil && bErr == nil && cErr == nil {
				// The post-commit WAL rotation is the one boundary whose
				// failure is absorbed by design: the manifest swap already
				// committed the batch, so AppendBatch reports success.
				if p != faults.StoreWALRotate || !fired {
					t.Fatalf("point %s never fired", p)
				}
			}
			for _, err := range []error{jErr, bErr, cErr} {
				if err != nil && !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("non-injected failure: %v", err)
				}
			}
			s.Close() // the "crash": the dir is all that survives

			r, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after kill at %s: %v", p, err)
			}
			defer r.Close()
			// Whatever happened, the reopened store materializes cleanly
			// and version Origin..0 relative history is intact.
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatalf("snapshot after kill at %s: %v", p, err)
			}
			last, err := snap.GetVersion(snap.NumVersions() - 1)
			if err != nil {
				t.Fatalf("materialize after kill at %s: %v", p, err)
			}
			// The latest snapshot is one of the two legal states: with or
			// without the second transition's edges.
			v1 := graph.Union(base, a0)
			v2 := graph.Union(v1, el(e(3, 4, 4), e(4, 5, 5)))
			if !sameEdges(last, v1) && !sameEdges(last, v2) {
				t.Fatalf("kill at %s left an illegal latest snapshot: %v", p, last)
			}
			// Appends still work after recovery.
			if err := r.AppendBatch(el(e(6, 7, 1)), nil, 0); err != nil {
				t.Fatalf("append after recovery from %s: %v", p, err)
			}
		})
	}
}

func sameEdges(a, b graph.EdgeList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
