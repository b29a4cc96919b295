package experiment

import (
	"bytes"
	"strings"
	"testing"

	"atc/internal/bytesort"
)

// Small sizes so the whole experiment machinery is covered in seconds.
const (
	tinyN = 30_000
)

var tinyModels = []string{"410.bwaves", "429.mcf", "453.povray"}

func tinyTable1() Table1Config {
	return Table1Config{Params: Params{Models: tinyModels, N: tinyN}, TCgenBits: 12}
}

func TestTraceCacheMemoises(t *testing.T) {
	tc := NewTraceCache()
	a, err := tc.Get("462.libquantum", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.Get("462.libquantum", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("cache returned a different slice for the same key")
	}
	if _, err := tc.Get("nope", 10, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelNamesComplete(t *testing.T) {
	if len(ModelNames()) != 22 {
		t.Fatalf("ModelNames() = %d entries", len(ModelNames()))
	}
}

func TestBytesortHelpersRoundTrip(t *testing.T) {
	tc := NewTraceCache()
	addrs, err := tc.Get("429.mcf", 5000, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []bytesort.Mode{bytesort.Sorted, bytesort.Unshuffle} {
		blob, err := CompressBytesort(addrs, 700, mode, "bsc")
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressBytesort(blob, mode, "bsc")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("mode %d: %d addrs", mode, len(got))
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("mode %d: mismatch at %d", mode, i)
			}
		}
	}
}

func TestTable1RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	res, err := RunTable1(tinyTable1(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(tinyModels) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, v := range []float64{row.Bz2, row.Unshuffle, row.TCgen, row.BSSmall, row.BSBig} {
			if v <= 0 || v > 64 {
				t.Fatalf("%s: BPA %v out of range", row.Trace, v)
			}
		}
	}
	// Paper shape check on the streaming trace: bytesort should beat the
	// raw back end handily on 410.bwaves.
	for _, row := range res.Rows {
		if row.Trace == "410.bwaves" && row.BSBig >= row.Bz2 {
			t.Errorf("bwaves: bytesort %v >= raw %v; transform ineffective", row.BSBig, row.Bz2)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "arith. mean") {
		t.Fatalf("render output malformed:\n%s", out)
	}
}

func TestTable2RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	t1, err := RunTable1(tinyTable1(), tc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable2(tinyTable1(), t1, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (tcgen, small, big)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AddrsPerSecond <= 0 {
			t.Fatalf("%s: %v addr/s", row.Name, row.AddrsPerSecond)
		}
		if row.BackendTime > row.TotalTime*3 {
			t.Fatalf("%s: backend time %v implausibly larger than total %v", row.Name, row.BackendTime, row.TotalTime)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("render output malformed")
	}
}

func TestTable3RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := Table3Config{Params: Params{Models: []string{"462.libquantum", "403.gcc"}, N: tinyN}}
	res, err := RunTable3(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Lossy <= 0 || row.Lossless <= 0 {
			t.Fatalf("%s: nonpositive BPA", row.Trace)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("render output malformed")
	}
}

func TestFigure3RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := Figure3Config{
		Params:    Params{Models: []string{"462.libquantum"}, N: tinyN},
		SetCounts: []int{64, 256},
		MaxAssoc:  8,
	}
	res, err := RunFigure3(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Exact) != 8 || len(c.Approx) != 8 {
			t.Fatalf("curve lengths %d/%d", len(c.Exact), len(c.Approx))
		}
		// Streaming trace at small caches: essentially all misses; and the
		// approximation must stay close.
		if c.MaxAbsError() > 0.15 {
			t.Errorf("sets=%d: max error %v too large", c.Sets, c.MaxAbsError())
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("render output malformed")
	}
}

func TestFigure4RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := Figure4Config{Params: Params{N: tinyN}, Sets: 256, MaxAssoc: 8}
	res, err := RunFigure4(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactFootprint <= 0 || res.TransFootprint <= 0 {
		t.Fatalf("footprints: %+v", res)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("render output malformed")
	}
}

func TestFigure5RunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := Figure5Config{Params: Params{Models: []string{"462.libquantum", "458.sjeng"}, N: tinyN}}
	res, err := RunFigure5(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Exact.Total() != int64(tinyN) || row.Approx.Total() != int64(tinyN) {
			t.Fatalf("%s: totals %d/%d", row.Trace, row.Exact.Total(), row.Approx.Total())
		}
	}
	// The streaming trace must be overwhelmingly predictable; the random
	// one overwhelmingly not. Both must carry over to the lossy trace.
	for _, row := range res.Rows {
		_, ec, _ := row.Exact.Fractions()
		_, ac, _ := row.Approx.Fractions()
		if row.Trace == "462.libquantum" && (ec < 0.8 || ac < 0.8) {
			t.Errorf("libquantum correct fractions %v/%v; expected high", ec, ac)
		}
		if row.Trace == "458.sjeng" && (ec > 0.5 || ac > 0.5) {
			t.Errorf("sjeng correct fractions %v/%v; expected low", ec, ac)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("render output malformed")
	}
}

func TestFigure8RunAndRender(t *testing.T) {
	// The interval length must be large enough for the histogram sampling
	// noise of a uniform random stream to fall below ε (≈ 26/sqrt(L)), or
	// translation tables get stored and dilute the ratio. L = 200k gives
	// noise ≈ 0.06 < 0.1, like the paper's L = 10M (noise ≈ 0.008).
	cfg := Figure8Config{Params: Params{N: 2_000_000}}
	res, err := RunFigure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1 (all random intervals look alike)", res.Chunks)
	}
	if res.Imitations != 9 {
		t.Fatalf("imitations = %d, want 9", res.Imitations)
	}
	if res.DecodedLen != int64(cfg.N) {
		t.Fatalf("decoded %d addrs", res.DecodedLen)
	}
	// Paper: compression ratio ~10 (one of ten intervals stored, random
	// data incompressible).
	if res.CompressionRatio < 8.5 || res.CompressionRatio > 11 {
		t.Fatalf("compression ratio = %v, want ~10", res.CompressionRatio)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Fatal("render output malformed")
	}
}

func TestLongTraceRunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := LongTraceConfig{
		Params:  Params{Models: []string{"462.libquantum"}, IntervalLen: 2_000},
		Lengths: []int{20_000, 80_000},
	}
	res, err := RunLongTrace(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Whole-execution") {
		t.Fatal("render output malformed")
	}
}

func TestEpsilonSweep(t *testing.T) {
	tc := NewTraceCache()
	cfg := EpsilonSweepConfig{Params: Params{Models: []string{"462.libquantum"}, N: tinyN}, Epsilons: []float64{0.05, 0.5}}
	res, err := RunEpsilonSweep(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// A looser threshold can only reduce (or keep) the number of chunks.
	if res.Points[1].Chunks > res.Points[0].Chunks {
		t.Fatalf("chunks grew with looser eps: %d -> %d", res.Points[0].Chunks, res.Points[1].Chunks)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestIntervalSweep(t *testing.T) {
	tc := NewTraceCache()
	cfg := IntervalSweepConfig{Params: Params{Models: []string{"429.mcf"}, N: tinyN}, IntervalLens: []int{1_500, 15_000}}
	res, err := RunIntervalSweep(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.FootprintRatio < p.NoTransFootRatio-0.05 {
			t.Errorf("L=%d: translated footprint ratio %v below no-translation %v",
				p.IntervalLen, p.FootprintRatio, p.NoTransFootRatio)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestBackendCompare(t *testing.T) {
	tc := NewTraceCache()
	cfg := BackendCompareConfig{Params: Params{Models: []string{"410.bwaves"}, N: tinyN}}
	res, err := RunBackendCompare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Gain < 1 {
			t.Errorf("%s/%s: bytesort gain %v < 1 on a streaming trace", row.Trace, row.Backend, row.Gain)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestHistorySweep(t *testing.T) {
	tc := NewTraceCache()
	cfg := HistorySweepConfig{Params: Params{Models: []string{"471.omnetpp"}, N: tinyN}, Capacities: []int{1, 64}}
	res, err := RunHistorySweep(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// More history can only help (fewer or equal chunks).
	if res.Points[1].Chunks > res.Points[0].Chunks {
		t.Errorf("chunks grew with larger table: %d -> %d", res.Points[0].Chunks, res.Points[1].Chunks)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
