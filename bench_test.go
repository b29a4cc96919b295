package atc_test

// This file regenerates every table and figure of the paper as Go
// benchmarks, one per experiment, at test-budget scale (the cmd/atcbench
// tool runs the same experiments at configurable scale; see its row in the
// README's "Command-line tools" table). Benchmark names follow the paper's
// table and figure numbers.
//
// Custom metrics carry the paper's numbers:
//
//	bits/addr    bits per address (Tables 1 and 3)
//	Maddr/s      decompression speed in millions of addresses/second (Table 2)
//	maxerr       largest exact-vs-lossy miss-ratio deviation (Figure 3/4)
//	ratio        compression ratio (Figure 8)

import (
	"math"
	"math/rand"
	"testing"

	"atc"
	"atc/internal/experiment"
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
	return experiment.Table1Config{Params: experiment.Params{Models: benchModels, N: benchN}, TCgenBits: 14}
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
	cfg := experiment.Table3Config{Params: experiment.Params{Models: benchModels, N: benchN}}
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
		Params:    experiment.Params{Models: []string{"429.mcf", "462.libquantum", "453.povray"}, N: benchN},
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
	cfg := experiment.Figure4Config{Params: experiment.Params{N: benchN}, Sets: 1024, MaxAssoc: 16}
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
	cfg := experiment.Figure5Config{Params: experiment.Params{Models: []string{"462.libquantum", "456.hmmer", "458.sjeng"}, N: benchN}}
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
	cfg := experiment.Figure8Config{Params: experiment.Params{N: 1_000_000}}
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
		Params:  experiment.Params{Models: []string{"482.sphinx3"}, IntervalLen: benchN / 25},
		Lengths: []int{benchN, 4 * benchN},
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

// --- the VPC compressor baseline ---

func BenchmarkVPCCompress(b *testing.B) {
	addrs, err := benchCache.Get("429.mcf", benchN, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := vpc.Config{TableBits: 14}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vpc.Compress(addrs, cfg); err != nil {
			b.Fatal(err)
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
