package obs

import (
	"testing"
	"time"
)

// BenchmarkObsOverhead is the acceptance gate for hot-path
// instrumentation cost: every mutation op the decode/encode paths call
// must run in a handful of ns with 0 B/op. TestObsAllocationFree
// enforces the allocation half as a hard test; this benchmark measures
// the cycle cost (go test -run '^$' -bench ObsOverhead ./internal/obs).
func BenchmarkObsOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "h")
	g := r.Gauge("bench_gauge", "h")
	h := r.Histogram("bench_seconds", "h", DurationBuckets)
	tr := &Trace{}
	b.Run("CounterInc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("GaugeSet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
	b.Run("HistogramObserveDuration", func(b *testing.B) {
		b.ReportAllocs()
		d := 250 * time.Microsecond
		for i := 0; i < b.N; i++ {
			h.ObserveDuration(d)
		}
	})
	b.Run("TraceAdd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.AddNS(StageFetch, 100)
		}
	})
	b.Run("ParallelCounter", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("ParallelHistogram", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(0.01)
			}
		})
	})
}
