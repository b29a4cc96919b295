package core

// BenchmarkEncodePaths times encoding a whole trace, the twin of
// BenchmarkDecodePaths on the same two traces, with one and two
// compression workers:
//
//	go test -run '^$' -bench EncodePaths -count 7 ./internal/core
//
// Each result carries an ns/addr metric, the time per encoded address,
// and B/op, the bytes the whole encode allocates.

import (
	"fmt"
	"testing"

	"atc/internal/store"
)

func BenchmarkEncodePaths(b *testing.B) {
	for k, tr := range decodePathTraces {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", tr.name, workers), func(b *testing.B) {
				raw := decodePathTrace(b, k)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					opts := tr.opts
					opts.Store, opts.Workers = store.NewMem(), workers
					if _, err := WriteTrace("", raw, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(raw)), "ns/addr")
			})
		}
	}
}
