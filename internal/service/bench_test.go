package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// BenchmarkSolveThroughput measures snapshot-isolated solve throughput at
// 1, 4, and 16 concurrent readers sharing one generation's cached
// factorization. ns/op is per solve; the solves/s metric is aggregate
// throughput across all readers.
func BenchmarkSolveThroughput(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			e := newEngine(b, 16, 16, Options{})
			snap := e.Current()
			n := snap.G.NumNodes()
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i))
			}
			vecmath.CenterMean(rhs)
			// Warm the per-generation factorization outside the timer.
			if _, err := snap.SolveInto(context.Background(), make([]float64, len(rhs)), rhs, solver.Options{Tol: 1e-8}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := make([]float64, len(rhs))
					for next.Add(1) <= int64(b.N) {
						if _, err := snap.SolveInto(context.Background(), x, rhs, solver.Options{Tol: 1e-8}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})
	}
}
