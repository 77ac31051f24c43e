package kickstarter

import (
	"fmt"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
)

// BenchmarkTransition measures one full KickStarter transition (mutation
// plus incremental deletion and addition) across batch sizes — the
// baseline's unit of work.
func BenchmarkTransition(b *testing.B) {
	n, base := gen.RMAT(gen.DefaultRMAT(15, 400_000, 5))
	for _, size := range []int{500, 2000, 8000} {
		size := size
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: size / 2, Deletions: size / 2, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := New(n, base, algo.SSSP{}, 0, engine.Options{})
				b.StartTimer()
				if err := sys.ApplyTransition(trs[0].Additions, trs[0].Deletions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeletionVsAddition isolates the two incremental primitives at
// equal batch size — the per-operation asymmetry behind Figure 1.
func BenchmarkDeletionVsAddition(b *testing.B) {
	n, base := gen.RMAT(gen.DefaultRMAT(15, 400_000, 5))
	const size = 3000
	addTr, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: size, Deletions: 0, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	delTr, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: 0, Deletions: size, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Addition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := New(n, base, algo.SSSP{}, 0, engine.Options{})
			b.StartTimer()
			if err := sys.ApplyTransition(addTr[0].Additions, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Deletion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := New(n, base, algo.SSSP{}, 0, engine.Options{})
			b.StartTimer()
			if err := sys.ApplyTransition(nil, delTr[0].Deletions); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMutation isolates in-place graph mutation.
func BenchmarkMutation(b *testing.B) {
	n, base := gen.RMAT(gen.DefaultRMAT(15, 400_000, 5))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: 3000, Deletions: 3000, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := NewMutableGraph(n, base)
			b.StartTimer()
			g.AddBatch(trs[0].Additions)
		}
	})
	b.Run("Delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := NewMutableGraph(n, base)
			b.StartTimer()
			if err := g.DeleteBatch(trs[0].Deletions); err != nil {
				b.Fatal(err)
			}
		}
	})
}
