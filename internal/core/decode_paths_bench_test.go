package core

// BenchmarkDecodePaths times the two ways to decode a whole trace, a
// Decode loop (the paper's atc_decode, as atc2bin runs it) and
// DecodeAll, at several Readahead settings, on the two trace shapes
// perfbench's batch workloads use:
//
//	go test -run '^$' -bench DecodePaths -count 7 ./internal/core
//
// Each result carries an ns/addr metric: the time per decoded address.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"atc/internal/store"
	"atc/internal/workload"
)

// decodePathTraces are the benchmark's traces, each 1 Mi addresses of a
// workload model generated with seed 1.
var decodePathTraces = []struct {
	name  string
	model string
	opts  Options
}{
	{"lossless-gcc", "403.gcc", Options{Mode: Lossless, SegmentAddrs: 128 << 10}},
	{"lossy-mcf", "429.mcf", Options{Mode: Lossy, IntervalLen: 32768}},
}

var decodePathStores sync.Map // trace name -> store.Store

// decodePathStore compresses the named trace into a memory store once
// per process.
func decodePathStore(b *testing.B, k int) store.Store {
	b.Helper()
	tr := decodePathTraces[k]
	if st, ok := decodePathStores.Load(tr.name); ok {
		return st.(store.Store)
	}
	raw, err := workload.GenerateFiltered(tr.model, 1<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	st := store.NewMem()
	opts := tr.opts
	opts.Store = st
	if _, err := WriteTrace("", raw, opts); err != nil {
		b.Fatal(err)
	}
	decodePathStores.Store(tr.name, st)
	return st
}

func BenchmarkDecodePaths(b *testing.B) {
	for k, tr := range decodePathTraces {
		for _, path := range []string{"Decode", "DecodeAll"} {
			for _, ra := range []int{-1, 1, 2, 4} {
				b.Run(fmt.Sprintf("%s/%s/readahead=%d", tr.name, path, ra), func(b *testing.B) {
					st := decodePathStore(b, k)
					var total int64
					b.ResetTimer()
					for range b.N {
						d, err := Open("", DecodeOptions{Store: st, Readahead: ra})
						if err != nil {
							b.Fatal(err)
						}
						var n int
						if path == "Decode" {
							n = drainDecode(b, d)
						} else {
							out, err := d.DecodeAll()
							if err != nil {
								b.Fatal(err)
							}
							n = len(out)
						}
						if int64(n) != d.TotalAddrs() {
							b.Fatalf("decoded %d addresses, want %d", n, d.TotalAddrs())
						}
						total += int64(n)
						d.Close()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/addr")
				})
			}
		}
	}
}

// drainDecode runs d's Decode loop to io.EOF and returns how many
// addresses it gave, keeping none of them, as atc2bin's loop keeps none.
func drainDecode(b *testing.B, d *Decompressor) int {
	var sum uint64
	for n := 0; ; n++ {
		v, err := d.Decode()
		if err == io.EOF {
			decodePathSink = sum
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
}

// decodePathSink keeps drainDecode's sum live.
var decodePathSink uint64
