package atc_test

// This file regenerates every table and figure of the paper as Go
// benchmarks, one per experiment, at test-budget scale (the cmd/atcbench
// tool runs the same experiments at configurable scale; DESIGN.md §4 maps
// each benchmark to its paper counterpart).
//
// Custom metrics carry the paper's numbers:
//
//	bits/addr    bits per address (Tables 1 and 3)
//	Maddr/s      decompression speed in millions of addresses/second (Table 2)
//	maxerr       largest exact-vs-lossy miss-ratio deviation (Figure 3/4)
//	ratio        compression ratio (Figure 8)

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"atc"
	"atc/internal/bytesort"
	"atc/internal/experiment"
	"atc/internal/histogram"
	"atc/internal/phase"
	"atc/internal/store"
	"atc/internal/vpc"
)

const (
	benchN = 120_000 // addresses per trace in benchmark runs
)

// benchModels is a representative subset spanning the paper's spectrum:
// streaming, pointer-chasing, code-heavy, tiny-footprint, unstable.
var benchModels = []string{
	"410.bwaves", "429.mcf", "445.gobmk", "453.povray", "462.libquantum", "403.gcc",
}

var benchCache = experiment.NewTraceCache()

func benchTable1Config() experiment.Table1Config {
	return experiment.Table1Config{Models: benchModels, N: benchN, TCgenBits: 14}
}

func BenchmarkTable1BitsPerAddress(b *testing.B) {
	var res *experiment.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunTable1(benchTable1Config(), benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean.Bz2, "bz2-bits/addr")
	b.ReportMetric(res.Mean.Unshuffle, "us-bits/addr")
	b.ReportMetric(res.Mean.TCgen, "tcg-bits/addr")
	b.ReportMetric(res.Mean.BSSmall, "bs1-bits/addr")
	b.ReportMetric(res.Mean.BSBig, "bs10-bits/addr")
}

func BenchmarkTable2Decompression(b *testing.B) {
	t1, err := experiment.RunTable1(benchTable1Config(), benchCache)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *experiment.Table2Result
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunTable2(benchTable1Config(), t1, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		name := map[string]string{
			"TCgen": "tcg", "bytesort small": "bs1", "bytesort big": "bs10",
		}[row.Name]
		b.ReportMetric(row.AddrsPerSecond/1e6, name+"-Maddr/s")
	}
}

func BenchmarkTable3LossyVsLossless(b *testing.B) {
	cfg := experiment.Table3Config{Models: benchModels, N: benchN}
	var res *experiment.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunTable3(cfg, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanLossless, "lossless-bits/addr")
	b.ReportMetric(res.MeanLossy, "lossy-bits/addr")
}

func BenchmarkFigure3MissRatios(b *testing.B) {
	cfg := experiment.Figure3Config{
		Models:    []string{"429.mcf", "462.libquantum", "453.povray"},
		N:         benchN,
		SetCounts: []int{256, 1024},
		MaxAssoc:  16,
	}
	var res *experiment.Figure3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunFigure3(cfg, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxErr := 0.0
	for _, c := range res.Curves {
		if e := c.MaxAbsError(); e > maxErr {
			maxErr = e
		}
	}
	b.ReportMetric(maxErr, "maxerr")
	if maxErr > 0.3 {
		b.Fatalf("lossy miss-ratio distortion %v too large", maxErr)
	}
}

func BenchmarkFigure4TranslationAblation(b *testing.B) {
	cfg := experiment.Figure4Config{N: benchN, Sets: 1024, MaxAssoc: 16}
	var res *experiment.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunFigure4(cfg, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the footprint ratios: translation must track the exact
	// footprint far better than the ablated decode.
	b.ReportMetric(float64(res.TransFootprint)/float64(res.ExactFootprint), "trans-footprint")
	b.ReportMetric(float64(res.NoTransFootprint)/float64(res.ExactFootprint), "notrans-footprint")
}

func BenchmarkFigure5Predictor(b *testing.B) {
	cfg := experiment.Figure5Config{Models: []string{"462.libquantum", "456.hmmer", "458.sjeng"}, N: benchN}
	var res *experiment.Figure5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunFigure5(cfg, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the worst per-class share deviation between exact and lossy.
	worst := 0.0
	for _, row := range res.Rows {
		en, ec, ei := row.Exact.Fractions()
		an, ac, ai := row.Approx.Fractions()
		for _, d := range []float64{en - an, ec - ac, ei - ai} {
			if math.Abs(d) > worst {
				worst = math.Abs(d)
			}
		}
	}
	b.ReportMetric(worst, "maxshare-err")
}

func BenchmarkFigure8RandomTrace(b *testing.B) {
	cfg := experiment.Figure8Config{N: 1_000_000}
	var res *experiment.Figure8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunFigure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CompressionRatio, "ratio")
	if res.Chunks != 1 {
		b.Fatalf("chunks = %d, want 1", res.Chunks)
	}
}

func BenchmarkLongTrace(b *testing.B) {
	cfg := experiment.LongTraceConfig{
		Model:       "482.sphinx3",
		Lengths:     []int{benchN, 4 * benchN},
		IntervalLen: benchN / 25,
	}
	var res *experiment.LongTraceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunLongTrace(cfg, benchCache)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].BPA, "short-bits/addr")
	b.ReportMetric(res.Points[len(res.Points)-1].BPA, "long-bits/addr")
}

// --- micro-benchmarks of the core pipelines ---

func benchTrace(b *testing.B, model string) []uint64 {
	return benchTraceN(b, model, benchN)
}

func benchTraceN(b *testing.B, model string, n int) []uint64 {
	b.Helper()
	addrs, err := benchCache.Get(model, n, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	return addrs
}

func BenchmarkBytesortCompress(b *testing.B) {
	addrs := benchTrace(b, "429.mcf")
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CompressBytesort(addrs, len(addrs)/10, bytesort.Sorted, "bsc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBytesortDecompress(b *testing.B) {
	addrs := benchTrace(b, "429.mcf")
	blob, err := experiment.CompressBytesort(addrs, len(addrs)/10, bytesort.Sorted, "bsc")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DecompressBytesort(blob, bytesort.Sorted, "bsc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVPCCompress(b *testing.B) {
	addrs := benchTrace(b, "429.mcf")
	cfg := vpc.Config{TableBits: 14}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vpc.Compress(addrs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serial vs parallel chunk pipeline ---

// chunkedBenchTrace yields intervals with distinct sorted-histogram shapes
// so every interval becomes its own back-end-compressed chunk: the workload
// the worker pool is built for.
func chunkedBenchTrace(intervals, intervalLen int) []uint64 {
	rng := rand.New(rand.NewSource(2009))
	addrs := make([]uint64, 0, intervals*intervalLen)
	for p := 0; p < intervals; p++ {
		// Three distribution families (uniform, bimodal, trimodal) crossed
		// with ten footprint sizes: 24 pairwise-distinguishable phases.
		footprint := 64 << uint(p%10)
		base := uint64(p) << 32
		hot := footprint / 8
		for i := 0; i < intervalLen; i++ {
			v := rng.Intn(footprint)
			if p >= 10 && i%2 == 0 {
				v = rng.Intn(hot)
			}
			if p >= 20 && i%4 == 1 {
				v = rng.Intn(4)
			}
			addrs = append(addrs, base+uint64(v))
		}
	}
	return addrs
}

func benchmarkChunkedCompress(b *testing.B, workers int) {
	const (
		intervals   = 24
		intervalLen = 10_000
	)
	addrs := chunkedBenchTrace(intervals, intervalLen)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "atc-chunkbench")
		if err != nil {
			b.Fatal(err)
		}
		stats, err := atc.Compress(dir, addrs,
			atc.WithMode(atc.Lossy),
			atc.WithIntervalLen(intervalLen),
			atc.WithBufferAddrs(intervalLen/10),
			atc.WithWorkers(workers),
		)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Chunks != intervals {
			b.Fatalf("trace not chunk-heavy: %d chunks of %d intervals", stats.Chunks, intervals)
		}
		os.RemoveAll(dir)
	}
}

func BenchmarkChunkedCompressWorkers1(b *testing.B) { benchmarkChunkedCompress(b, 1) }
func BenchmarkChunkedCompressWorkers2(b *testing.B) { benchmarkChunkedCompress(b, 2) }
func BenchmarkChunkedCompressWorkers4(b *testing.B) { benchmarkChunkedCompress(b, 4) }
func BenchmarkChunkedCompressWorkers8(b *testing.B) { benchmarkChunkedCompress(b, 8) }

func benchmarkChunkedDecode(b *testing.B, readahead int) {
	const (
		intervals   = 24
		intervalLen = 10_000
	)
	addrs := chunkedBenchTrace(intervals, intervalLen)
	dir, err := os.MkdirTemp("", "atc-decbench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := atc.Compress(dir, addrs,
		atc.WithMode(atc.Lossy),
		atc.WithIntervalLen(intervalLen),
		atc.WithBufferAddrs(intervalLen/10),
	); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := atc.Decompress(dir, atc.WithReadahead(readahead))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
		}
	}
}

func BenchmarkChunkedDecodeSync(b *testing.B)      { benchmarkChunkedDecode(b, -1) }
func BenchmarkChunkedDecodeReadahead(b *testing.B) { benchmarkChunkedDecode(b, 2) }

// --- serial vs parallel segmented lossless (format v2) ---

const (
	segBenchSegments = 8
	segBenchAddrs    = 30_000 // per segment; 8 segments = 240k addresses
)

func segmentedBenchTrace(b *testing.B) []uint64 {
	return benchTraceN(b, "429.mcf", segBenchSegments*segBenchAddrs)
}

func benchmarkSegmentedCompress(b *testing.B, workers int) {
	addrs := segmentedBenchTrace(b)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "atc-segbench")
		if err != nil {
			b.Fatal(err)
		}
		stats, err := atc.Compress(dir, addrs,
			atc.WithMode(atc.Lossless),
			atc.WithSegmentAddrs(segBenchAddrs),
			atc.WithBufferAddrs(segBenchAddrs/10),
			atc.WithWorkers(workers),
		)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Chunks != segBenchSegments {
			b.Fatalf("segments = %d, want %d", stats.Chunks, segBenchSegments)
		}
		os.RemoveAll(dir)
	}
}

func BenchmarkSegmentedLosslessCompressWorkers1(b *testing.B) { benchmarkSegmentedCompress(b, 1) }
func BenchmarkSegmentedLosslessCompressWorkers2(b *testing.B) { benchmarkSegmentedCompress(b, 2) }
func BenchmarkSegmentedLosslessCompressWorkers4(b *testing.B) { benchmarkSegmentedCompress(b, 4) }
func BenchmarkSegmentedLosslessCompressWorkers8(b *testing.B) { benchmarkSegmentedCompress(b, 8) }

func benchmarkSegmentedDecode(b *testing.B, readahead int) {
	addrs := segmentedBenchTrace(b)
	dir, err := os.MkdirTemp("", "atc-segdecbench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := atc.Compress(dir, addrs,
		atc.WithMode(atc.Lossless),
		atc.WithSegmentAddrs(segBenchAddrs),
		atc.WithBufferAddrs(segBenchAddrs/10),
	); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := atc.Decompress(dir, atc.WithReadahead(readahead))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
		}
	}
}

func BenchmarkSegmentedLosslessDecodeSync(b *testing.B)       { benchmarkSegmentedDecode(b, -1) }
func BenchmarkSegmentedLosslessDecodeReadahead4(b *testing.B) { benchmarkSegmentedDecode(b, 4) }

// --- PR 5: encode front-end pipeline and sub-span batched readahead ---

// benchmarkEncodeFrontend measures the lossy encode hot path end to end
// into a memory store (no filesystem noise): with Workers=1 the
// histogram + phase match + dispatch run on the caller's goroutine; with
// Workers>1 they pipeline behind it, so the delta is the front-end
// serial section removed from the caller.
func benchmarkEncodeFrontend(b *testing.B, workers int) {
	const (
		intervals   = 24
		intervalLen = 10_000
	)
	addrs := chunkedBenchTrace(intervals, intervalLen)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := atc.NewWriter("bench", atc.WithStore(atc.NewMemStore()),
			atc.WithMode(atc.Lossy),
			atc.WithIntervalLen(intervalLen),
			atc.WithBufferAddrs(intervalLen/10),
			atc.WithWorkers(workers),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CodeSlice(addrs); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if stats := w.Stats(); stats.Chunks != intervals {
			b.Fatalf("trace not chunk-heavy: %d chunks of %d intervals", stats.Chunks, intervals)
		}
	}
}

func BenchmarkEncodeFrontendWorkers1(b *testing.B) { benchmarkEncodeFrontend(b, 1) }
func BenchmarkEncodeFrontendWorkers2(b *testing.B) { benchmarkEncodeFrontend(b, 2) }
func BenchmarkEncodeFrontendWorkers4(b *testing.B) { benchmarkEncodeFrontend(b, 4) }

// benchmarkReadaheadBatch measures a full readahead decode of a
// segmented lossless trace. B/op is the point: batched delivery streams
// segments through recycled batch buffers, so allocation does not scale
// with SegmentAddrs. The "store" backend variant isolates the pipeline's
// own buffering from the back end's decompression working memory, on
// segments 16× larger.
func benchmarkReadaheadBatch(b *testing.B, backend string, segment int) {
	addrs := benchTraceN(b, "429.mcf", segBenchSegments*segBenchAddrs)
	mem := atc.NewMemStore()
	w, err := atc.NewWriter("bench", atc.WithStore(mem),
		atc.WithMode(atc.Lossless),
		atc.WithBackend(backend),
		atc.WithSegmentAddrs(segment),
		atc.WithBufferAddrs(segment/10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := atc.NewReader("bench", atc.WithReadStore(mem), atc.WithReadahead(4))
		if err != nil {
			b.Fatal(err)
		}
		var n int
		for {
			_, err := r.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		r.Close()
		if n != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", n, len(addrs))
		}
	}
}

func BenchmarkReadaheadBatched(b *testing.B) {
	benchmarkReadaheadBatch(b, "bsc", segBenchAddrs)
}
func BenchmarkReadaheadBatchedBigSeg(b *testing.B) {
	benchmarkReadaheadBatch(b, "store", segBenchSegments*segBenchAddrs/2)
}

// imitationBenchTrace repeats one distribution, so lossy mode stores a
// single chunk plus imitation records for every later interval.
func imitationBenchTrace(intervals, intervalLen int) []uint64 {
	rng := rand.New(rand.NewSource(2009))
	addrs := make([]uint64, 0, intervals*intervalLen)
	for p := 0; p < intervals; p++ {
		for i := 0; i < intervalLen; i++ {
			addrs = append(addrs, uint64(rng.Intn(1<<16)))
		}
	}
	return addrs
}

// BenchmarkReadaheadBatchedImitation decodes an imitation-heavy lossy
// trace: batched delivery translates imitations into recycled batch
// buffers on concurrent span tasks, with no whole-interval copy per
// record.
func BenchmarkReadaheadBatchedImitation(b *testing.B) {
	const (
		intervals   = 24
		intervalLen = 10_000
	)
	addrs := imitationBenchTrace(intervals, intervalLen)
	mem := atc.NewMemStore()
	w, err := atc.NewWriter("bench", atc.WithStore(mem),
		atc.WithMode(atc.Lossy),
		atc.WithIntervalLen(intervalLen),
		atc.WithBufferAddrs(intervalLen/10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if stats := w.Stats(); stats.Imitations < intervals/2 {
		b.Fatalf("trace not imitation-heavy: %d imitations of %d intervals", stats.Imitations, intervals)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := atc.NewReader("bench", atc.WithReadStore(mem), atc.WithReadahead(4))
		if err != nil {
			b.Fatal(err)
		}
		var n int
		for {
			_, err := r.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		r.Close()
		if n != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", n, len(addrs))
		}
	}
}

// BenchmarkReadaheadBatchedReused is BenchmarkReadaheadBatched with one
// long-lived Reader rewound between iterations instead of reopened: the
// steady state of a consumer making repeated passes. The backend-reader
// pool is warm after the first pass, so B/op here is the pipeline's true
// per-pass churn with decompression working state recycled (the reopened
// variant pays the pool's cold fill every iteration).
func BenchmarkReadaheadBatchedReused(b *testing.B) {
	addrs := benchTraceN(b, "429.mcf", segBenchSegments*segBenchAddrs)
	mem := atc.NewMemStore()
	w, err := atc.NewWriter("bench", atc.WithStore(mem),
		atc.WithMode(atc.Lossless),
		atc.WithBackend("bsc"),
		atc.WithSegmentAddrs(segBenchAddrs),
		atc.WithBufferAddrs(segBenchAddrs/10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := atc.NewReader("bench", atc.WithReadStore(mem), atc.WithReadahead(4))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(int64(len(addrs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		var n int
		for {
			_, err := r.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", n, len(addrs))
		}
	}
}

// --- PR 9: phase-table match pruning ---

// matchBenchTable fills a phase table to capacity with pairwise-distinct
// interval histograms (footprint sizes crossed with hot-subset mixtures)
// and returns a probe matching none of them: the worst case, where the
// exhaustive path pays the full 8×256 distance against every entry and the
// pruned path must reject almost all of them from summaries alone.
func matchBenchTable(b *testing.B, capacity int) (*phase.Table, *histogram.Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(2009))
	t := phase.New(capacity, 0.1)
	const intervalLen = 4096
	addrs := make([]uint64, intervalLen)
	for p := 0; p < capacity; p++ {
		footprint := 16 << uint(p%24)
		hot := footprint/16 + 1
		stride := 2 + p/24
		for i := range addrs {
			v := rng.Intn(footprint)
			if p >= 24 && i%stride == 0 {
				v = rng.Intn(hot)
			}
			addrs[i] = uint64(p)<<40 + uint64(v)
		}
		t.Insert(p+1, histogram.Compute(addrs))
	}
	if t.Len() != capacity {
		b.Fatalf("table holds %d entries, want %d", t.Len(), capacity)
	}
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(48)) // footprint between table entries 32 and 64
	}
	probe := histogram.Compute(addrs)
	if _, _, ok := t.MatchExhaustive(probe); ok {
		b.Fatal("probe unexpectedly matches a table entry")
	}
	return t, probe
}

func benchmarkMatch(b *testing.B, capacity int, exhaustive bool) {
	t, probe := matchBenchTable(b, capacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if exhaustive {
			_, _, ok = t.MatchExhaustive(probe)
		} else {
			_, _, ok = t.Match(probe)
		}
		if ok {
			b.Fatal("unexpected match")
		}
	}
}

func BenchmarkMatchPruned256(b *testing.B)      { benchmarkMatch(b, 256, false) }
func BenchmarkMatchExhaustive256(b *testing.B)  { benchmarkMatch(b, 256, true) }
func BenchmarkMatchPruned1024(b *testing.B)     { benchmarkMatch(b, 1024, false) }
func BenchmarkMatchExhaustive1024(b *testing.B) { benchmarkMatch(b, 1024, true) }

// manyPhaseBenchTrace crosses ten footprint sizes with six hot-injection
// strides and five hot-set sizes: ~206 pairwise-distinguishable phases
// (the rest imitate), enough to fill the default 256-entry phase table.
// chunkedBenchTrace's 24 phases never exercise Match at depth; this is
// the workload where classify cost scales with table occupancy.
func manyPhaseBenchTrace(phases, intervalLen int) []uint64 {
	rng := rand.New(rand.NewSource(2009))
	addrs := make([]uint64, 0, phases*intervalLen)
	for p := 0; p < phases; p++ {
		footprint := 64 << uint(p%10)
		stride := 2 + (p/10)%6
		hot := 4 << uint((p/60)%5)
		base := uint64(p) << 36
		for i := 0; i < intervalLen; i++ {
			v := rng.Intn(footprint)
			if i%stride == 0 {
				v = rng.Intn(hot)
			}
			addrs = append(addrs, base+uint64(v))
		}
	}
	return addrs
}

// BenchmarkEncodeFrontendManyPhases is the Workers=1 lossy encode with
// ~206 distinct phases resident in the phase table: every interval's
// classify scans deep into the table, so the summary rejection bound —
// not the backend — decides the ns/addr here.
func BenchmarkEncodeFrontendManyPhases(b *testing.B) {
	const (
		phases      = 300
		intervalLen = 2000
	)
	addrs := manyPhaseBenchTrace(phases, intervalLen)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := atc.NewWriter("bench", atc.WithStore(atc.NewMemStore()),
			atc.WithMode(atc.Lossy),
			atc.WithIntervalLen(intervalLen),
			atc.WithBufferAddrs(intervalLen/10),
			atc.WithWorkers(1),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CodeSlice(addrs); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if stats := w.Stats(); stats.Chunks < 200 {
			b.Fatalf("trace not phase-diverse: %d chunks of %d intervals", stats.Chunks, phases)
		}
	}
}

// BenchmarkEncodeFrontendTable1024 is the Workers=1 front-end benchmark at
// 4× the default TableCapacity: every interval's Match scans a deeper
// table, so this is where the summary rejection bound has to hold the
// classify stage flat rather than O(capacity).
func BenchmarkEncodeFrontendTable1024(b *testing.B) {
	const (
		intervals   = 24
		intervalLen = 10_000
	)
	addrs := chunkedBenchTrace(intervals, intervalLen)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := atc.NewWriter("bench", atc.WithStore(atc.NewMemStore()),
			atc.WithMode(atc.Lossy),
			atc.WithIntervalLen(intervalLen),
			atc.WithBufferAddrs(intervalLen/10),
			atc.WithWorkers(1),
			atc.WithTableCapacity(1024),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CodeSlice(addrs); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if stats := w.Stats(); stats.Chunks != intervals {
			b.Fatalf("trace not chunk-heavy: %d chunks of %d intervals", stats.Chunks, intervals)
		}
	}
}

// TestSegmentedBPAOverhead pins the capacity cost of lossless segmentation:
// versus the legacy single chunk, the default segment size (which holds
// this whole trace in one segment) must be essentially free, and even an
// aggressive 8-way split must stay under 5% BPA overhead on a random
// trace.
func TestSegmentedBPAOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	const n = 160_000
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 28))
	}
	bpaAt := func(segment int) float64 {
		dir := t.TempDir()
		if _, err := atc.Compress(dir, addrs,
			atc.WithMode(atc.Lossless),
			atc.WithBufferAddrs(n/10),
			atc.WithSegmentAddrs(segment),
		); err != nil {
			t.Fatal(err)
		}
		bpa, err := atc.BitsPerAddress(dir, n)
		if err != nil {
			t.Fatal(err)
		}
		return bpa
	}
	single := bpaAt(0)        // legacy v1 single chunk
	defSeg := bpaAt(16 << 20) // the default segment size, spelled out
	eightWay := bpaAt(n / 8)
	if defSeg > single*1.05 {
		t.Fatalf("default segment size BPA %.4f vs single-chunk %.4f: overhead > 5%%", defSeg, single)
	}
	if eightWay > single*1.05 {
		t.Fatalf("8-way segmented BPA %.4f vs single-chunk %.4f: overhead > 5%%", eightWay, single)
	}
}

// --- archive store vs directory store (PR 3) ---

func benchmarkSegmentedArchiveCompress(b *testing.B, workers int) {
	addrs := segmentedBenchTrace(b)
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "atc-arcbench")
		if err != nil {
			b.Fatal(err)
		}
		w, err := atc.CreateArchive(filepath.Join(dir, "t.atc"),
			atc.WithMode(atc.Lossless),
			atc.WithSegmentAddrs(segBenchAddrs),
			atc.WithBufferAddrs(segBenchAddrs/10),
			atc.WithWorkers(workers),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.CodeSlice(addrs); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

func BenchmarkSegmentedArchiveCompressWorkers1(b *testing.B) { benchmarkSegmentedArchiveCompress(b, 1) }
func BenchmarkSegmentedArchiveCompressWorkers4(b *testing.B) { benchmarkSegmentedArchiveCompress(b, 4) }

func benchmarkSegmentedArchiveDecode(b *testing.B, readahead int) {
	addrs := segmentedBenchTrace(b)
	dir, err := os.MkdirTemp("", "atc-arcdecbench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "t.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless),
		atc.WithSegmentAddrs(segBenchAddrs),
		atc.WithBufferAddrs(segBenchAddrs/10),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := atc.OpenArchive(path, atc.WithReadahead(readahead))
		if err != nil {
			b.Fatal(err)
		}
		got, err := r.DecodeAll()
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
		if len(got) != len(addrs) {
			b.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
		}
	}
}

func BenchmarkSegmentedArchiveDecodeSync(b *testing.B)       { benchmarkSegmentedArchiveDecode(b, -1) }
func BenchmarkSegmentedArchiveDecodeReadahead4(b *testing.B) { benchmarkSegmentedArchiveDecode(b, 4) }

// --- random access: DecodeRange over the chunk index (PR 4) ---

// rangeBenchTrace writes the segmented benchmark workload as a directory
// or a single-file archive and returns its path.
func rangeBenchTrace(b *testing.B, archive bool) string {
	addrs := segmentedBenchTrace(b)
	dir, err := os.MkdirTemp("", "atc-rangebench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	opts := []atc.Option{
		atc.WithMode(atc.Lossless),
		atc.WithSegmentAddrs(segBenchAddrs),
		atc.WithBufferAddrs(segBenchAddrs / 10),
	}
	if !archive {
		if _, err := atc.Compress(dir, addrs, opts...); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	path := filepath.Join(dir, "t.atc")
	w, err := atc.CreateArchive(path, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchmarkDecodeRange measures one mid-trace window per iteration. Cold
// reopens the Reader every time (every chunk decompresses from the
// store); warm reuses one Reader, so after the first iteration the
// window is served from the chunk cache.
func benchmarkDecodeRange(b *testing.B, archive, warm bool) {
	path := rangeBenchTrace(b, archive)
	// A window straddling two segments, mid-trace.
	from := int64(segBenchAddrs*3 - segBenchAddrs/2)
	to := from + segBenchAddrs
	var persistent *atc.Reader
	if warm {
		r, err := atc.NewReader(path, atc.WithReadahead(-1))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		persistent = r
	}
	b.SetBytes((to - from) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := persistent
		if !warm {
			var err error
			r, err = atc.NewReader(path, atc.WithReadahead(-1))
			if err != nil {
				b.Fatal(err)
			}
		}
		got, err := r.DecodeRange(from, to)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(got)) != to-from {
			b.Fatalf("range returned %d addrs, want %d", len(got), to-from)
		}
		if !warm {
			r.Close()
		}
	}
}

func BenchmarkDecodeRangeDirCold(b *testing.B)     { benchmarkDecodeRange(b, false, false) }
func BenchmarkDecodeRangeDirWarm(b *testing.B)     { benchmarkDecodeRange(b, false, true) }
func BenchmarkDecodeRangeArchiveCold(b *testing.B) { benchmarkDecodeRange(b, true, false) }
func BenchmarkDecodeRangeArchiveWarm(b *testing.B) { benchmarkDecodeRange(b, true, true) }

// benchmarkDecodeRangeRemote is benchmarkDecodeRange over a RemoteStore:
// the archive sits behind a local Range-speaking HTTP server and every
// chunk read goes through the remote block cache. Cold reopens the reader
// each iteration — a fresh block cache, so the window's blocks are
// fetched from the origin every time; warm reuses one reader, so after
// the first iteration both the block cache and the chunk cache are hot
// and the origin is never touched again.
func benchmarkDecodeRangeRemote(b *testing.B, warm bool) {
	path := rangeBenchTrace(b, true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, path)
	}))
	b.Cleanup(srv.Close)
	from := int64(segBenchAddrs*3 - segBenchAddrs/2)
	to := from + segBenchAddrs
	var persistent *atc.Reader
	if warm {
		r, err := atc.NewReader(srv.URL, atc.WithReadahead(-1))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		persistent = r
	}
	b.SetBytes((to - from) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := persistent
		if !warm {
			var err error
			r, err = atc.NewReader(srv.URL, atc.WithReadahead(-1))
			if err != nil {
				b.Fatal(err)
			}
		}
		got, err := r.DecodeRange(from, to)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(got)) != to-from {
			b.Fatalf("range returned %d addrs, want %d", len(got), to-from)
		}
		if !warm {
			r.Close()
		}
	}
}

func BenchmarkDecodeRangeRemoteCold(b *testing.B) { benchmarkDecodeRangeRemote(b, false) }
func BenchmarkDecodeRangeRemoteWarm(b *testing.B) { benchmarkDecodeRangeRemote(b, true) }

// BenchmarkDecodeRangeVsFullDecode quantifies the point of the chunk
// index: fetching one two-segment window without decoding the rest of
// the trace, versus what a front-to-back consumer would pay.
func BenchmarkDecodeRangeVsFullDecode(b *testing.B) {
	path := rangeBenchTrace(b, true)
	from := int64(segBenchAddrs*3 - segBenchAddrs/2)
	to := from + segBenchAddrs
	b.SetBytes((to - from) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := atc.OpenArchive(path, atc.WithReadahead(-1))
		if err != nil {
			b.Fatal(err)
		}
		all, err := r.DecodeAll()
		if err != nil {
			b.Fatal(err)
		}
		_ = all[from:to]
		r.Close()
	}
}

// BenchmarkSharedCacheBytes measures the hot-hit path of the
// process-wide byte-budgeted chunk cache: GetOrLoad across three trace
// views, every lookup a hit, the shape a serving replica sees once its
// working set is resident.
func BenchmarkSharedCacheBytes(b *testing.B) {
	const (
		traces   = 3
		chunks   = 64
		chunkLen = 512
	)
	c := atc.NewSharedChunkCacheBytes(int64(traces * chunks * chunkLen * 8))
	views := make([]*atc.TraceChunkCache, traces)
	payload := make([]uint64, chunkLen)
	for t := range views {
		views[t] = c.ForTrace(fmt.Sprintf("t%d", t))
		for id := 0; id < chunks; id++ {
			views[t].Put(id, payload)
		}
	}
	load := func() ([]uint64, error) { return payload, nil }
	// Thousands of lookups per op keep ns/op coarse enough for the
	// benchguard gate: a single hot hit is a few hundred nanoseconds,
	// too fine for a 10% threshold at -benchtime 3x.
	const lookups = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < lookups; j++ {
			addrs, err := views[j%traces].GetOrLoad(j%chunks, load)
			if err != nil || len(addrs) != chunkLen {
				b.Fatalf("GetOrLoad = %d addrs, %v", len(addrs), err)
			}
		}
	}
}

// remoteBenchTrace writes a 32-segment archive of several megabytes: a
// sequential decode reads 32 chunk blobs from the remote origin.
func remoteBenchTrace(b *testing.B) (string, int64) {
	const segments = 32
	rng := rand.New(rand.NewSource(2009))
	addrs := make([]uint64, segments*segBenchAddrs)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 26))
	}
	dir, err := os.MkdirTemp("", "atc-remotebench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "t.atc")
	w, err := atc.CreateArchive(path,
		atc.WithMode(atc.Lossless),
		atc.WithSegmentAddrs(segBenchAddrs),
		atc.WithBufferAddrs(segBenchAddrs/10))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.CodeSlice(addrs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path, int64(len(addrs))
}

// BenchmarkRemotePrefetchAdaptive decodes the whole segmented archive
// front-to-back over a local Range-speaking origin, opening the remote
// store afresh each iteration, and reports the origin round-trips: the
// open-time HEAD and header/footer/TOC reads plus one ranged GET per
// blob read. The name predates the removal of the remote readahead; it is
// kept because the CI benchmark gate tracks it.
func BenchmarkRemotePrefetchAdaptive(b *testing.B) {
	path, total := remoteBenchTrace(b)
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		http.ServeFile(w, r, path)
	}))
	b.Cleanup(srv.Close)
	b.SetBytes(total * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rst, err := store.OpenRemote(srv.URL, store.RemoteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := atc.NewReader("bench", atc.WithReadStore(rst), atc.WithReadahead(-1))
		if err != nil {
			b.Fatal(err)
		}
		got, err := r.DecodeRange(0, total)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(got)) != total {
			b.Fatalf("decoded %d addrs, want %d", len(got), total)
		}
		r.Close()
	}
	b.ReportMetric(float64(gets.Load())/float64(b.N), "origin-gets/op")
}
