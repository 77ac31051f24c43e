package snapshot

import (
	"testing"

	"commongraph/internal/gen"
)

// benchStore is LJ-sim at the default scale with the given number of
// 500 + 500 transitions committed, and one more that the head accepts.
func benchStore(b *testing.B, transitions int) (*Store, gen.Transition) {
	b.Helper()
	lj, ok := gen.ByName("LJ-sim")
	if !ok {
		b.Fatal("LJ-sim stand-in missing")
	}
	n, base := lj.Build(1)
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: transitions + 1, Additions: 500, Deletions: 500, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore(n, base)
	for _, tr := range trs[:transitions] {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			b.Fatal(err)
		}
	}
	return s, trs[transitions]
}

// BenchmarkCommitCheck is the in-memory half of a commit: one 500 + 500
// transition validated against the head of a 440 K-edge store and
// appended to it. The stream alternates a transition with its inverse,
// so every one of them is valid however long the benchmark runs.
func BenchmarkCommitCheck(b *testing.B) {
	s, next := benchStore(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adds, dels := next.Additions, next.Deletions
		if i%2 == 1 {
			adds, dels = dels, adds
		}
		if _, err := s.NewVersion(adds, dels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay16 materializes the version 16 transitions after the
// nearest materialized one.
func BenchmarkReplay16(b *testing.B) {
	s, _ := benchStore(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DropCache()
		if _, err := s.GetVersion(16); err != nil {
			b.Fatal(err)
		}
	}
}
