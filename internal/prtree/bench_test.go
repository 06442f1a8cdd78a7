package prtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

func benchDB(n, d int) uncertain.DB {
	return randomDB(rand.New(rand.NewSource(7)), n, d)
}

// anticorrelatedDB is one proto-cpu-sized site partition: n anticorrelated
// 3-d tuples with uniform existential probabilities.
func anticorrelatedDB(tb testing.TB, n int) uncertain.DB {
	db, err := gen.Generate(gen.Config{N: n, Dims: 3, Values: gen.Anticorrelated, Probs: gen.UniformProb, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// kernelCase is one data shape the kernel benchmarks run over.
type kernelCase struct {
	name string
	db   uncertain.DB
	dims []int
}

// kernelCases are independent full-space trees plus one anticorrelated
// site partition of proto-cpu's size (5000 tuples) in the full space and
// in subspace {0,1}.
func kernelCases(tb testing.TB) []kernelCase {
	anti := anticorrelatedDB(tb, 5000)
	return []kernelCase{
		{"n=10000", benchDB(10000, 3), nil},
		{"n=100000", benchDB(100000, 3), nil},
		{"anti/n=5000", anti, nil},
		{"anti/n=5000/dims=01", anti, []int{0, 1}},
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		db := benchDB(n, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Bulk(db, 3, 0)
			}
		})
	}
}

// BenchmarkBulkHeap reports the heap a bulk-loaded tree keeps live, per
// tuple, at the size one benchmark workload holds (160k 3-d tuples).
func BenchmarkBulkHeap(b *testing.B) {
	b.ReportMetric(bulkHeapPerTuple(benchDB(160000, 3)), "B/tuple")
}

// bulkHeapPerTuple returns the heap bytes a tree bulk-loaded over db keeps
// reachable after a collection, per tuple; db itself stays live throughout
// so its own bytes do not count either way.
func bulkHeapPerTuple(db uncertain.DB) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := Bulk(db, 3, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	runtime.KeepAlive(db)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(db))
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(100000, 3)
	tr := New(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(db[i%len(db)].Clone())
	}
}

func BenchmarkDelete(b *testing.B) {
	db := benchDB(200000, 3)
	tr := Bulk(db, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N && i < len(db); i++ {
		if err := tr.Delete(db[i].ID, db[i].Point); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossSkyProb(b *testing.B) {
	for _, c := range kernelCases(b) {
		tr := Bulk(c.db, 3, 0)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.CrossSkyProb(c.db[i%len(c.db)], c.dims)
			}
		})
	}
}

func BenchmarkLocalSkyline(b *testing.B) {
	for _, c := range kernelCases(b) {
		tr := Bulk(c.db, 3, 0)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(tr.LocalSkyline(0.3, c.dims))
			}
			b.ReportMetric(float64(size), "skyline")
		})
	}
}

func BenchmarkDominators(b *testing.B) {
	db := benchDB(100000, 3)
	tr := Bulk(db, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Dominators(db[i%len(db)].Point, nil, db[i%len(db)].ID, func(uncertain.Tuple) bool {
			count++
			return true
		})
	}
}

// BenchmarkLinearScanSkyProb is the no-index strawman CrossSkyProb for
// comparison with the PR-tree path above.
func BenchmarkLinearScanSkyProb(b *testing.B) {
	db := benchDB(100000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.CrossSkyProb(db[i%len(db)], nil)
	}
}
