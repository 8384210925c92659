package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
)

// BenchmarkPredicateKernel is the layer benchmark of the fused predicate
// kernel: one op is one 1024-row vector through Predicate.evalBatchFused
// (loads, compares, branch retirement, survivor compaction) on a 64-vector
// column the loop cycles through, so the host's own branch predictor cannot
// memorize a vector. Rows: each column kind at selectivity 0.01 / 0.5 / 0.99
// on shuffled values, one sorted column (every vector but one is all-pass or
// all-fail), and a shuffled column entered through a sparse selection that
// holds one row in ten. Read ns/row; sim_cycles pins the simulated work.
func BenchmarkPredicateKernel(b *testing.B) {
	const vec, vectors = 1024, 64
	const rows = vec * vectors
	rng := rand.New(rand.NewSource(24))
	shuffled := rng.Perm(rows)
	sorted := make([]int, rows)
	for i := range sorted {
		sorted[i] = i
	}
	dense := func(lo int) []int32 {
		sel := make([]int32, vec)
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		return sel
	}
	sparse := func(lo int) []int32 {
		sel := make([]int32, 0, vec/10)
		for _, i := range rng.Perm(vec)[:vec/10] {
			sel = append(sel, int32(lo+i))
		}
		sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
		return sel
	}
	column := func(kind string, vals []int) *columnar.Column {
		switch kind {
		case "int32":
			d := make([]int32, rows)
			for i, v := range vals {
				d[i] = int32(v)
			}
			return columnar.NewInt32("v", d)
		case "int64":
			d := make([]int64, rows)
			for i, v := range vals {
				d[i] = int64(v)
			}
			return columnar.NewInt64("v", d)
		default:
			d := make([]float64, rows)
			for i, v := range vals {
				d[i] = float64(v)
			}
			return columnar.NewFloat64("v", d)
		}
	}
	type row struct {
		name string
		kind string
		vals []int
		s    float64
		sel  func(lo int) []int32
	}
	var cases []row
	for _, kind := range []string{"int32", "int64", "float64"} {
		for _, s := range []float64{0.01, 0.5, 0.99} {
			cases = append(cases, row{fmt.Sprintf("%s/shuffled/sel=%.2f", kind, s), kind, shuffled, s, dense})
		}
	}
	cases = append(cases,
		row{"int32/clustered/sel=0.50", "int32", sorted, 0.5, dense},
		row{"int32/shuffled/sel=0.50/sparse10", "int32", shuffled, 0.5, sparse})
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := cpu.MustNew(cpu.ScaledXeon())
			col := column(tc.kind, tc.vals)
			base, err := c.Alloc(col.SizeBytes())
			if err != nil {
				b.Fatal(err)
			}
			col.Bind(base)
			bound := tc.s * rows
			p := &Predicate{Col: col, Op: LT, I: int64(bound), F: bound}
			sels := make([][]int32, vectors)
			for v := range sels {
				sels[v] = tc.sel(v * vec)
			}
			out := make([]int32, 0, vec)
			c.Cold()
			start := c.Cycles()
			var evaluated, survivors int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel := sels[i%vectors]
				evaluated += len(sel)
				survivors += len(p.evalBatchFused(c, 0, sel, out))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evaluated), "ns/row")
			b.ReportMetric(float64(c.Cycles()-start)/float64(b.N), "sim_cycles/op")
			b.ReportMetric(float64(survivors)/float64(evaluated), "pass_share")
		})
	}
}
