package experiment

import (
	"fmt"
	"io"
	"math"

	"atc/internal/cdc"
	"atc/internal/cheetah"
	"atc/internal/phase"
	"atc/internal/workload"
)

// Figure3Config parameterises the miss-ratio comparison of Figure 3.
// Models default to the paper's 15-benchmark subset, N to
// 2·DefaultTraceLen.
type Figure3Config struct {
	Params
	SetCounts []int // default {512, 2048, 8192, 32768} (scaled from 2k..512k)
	MaxAssoc  int   // default 32
}

// figure3PaperSubset is the 15 benchmarks shown in the paper's Figure 3.
var figure3PaperSubset = []string{
	"400.perlbench", "401.bzip2", "410.bwaves", "429.mcf", "435.gromacs",
	"450.soplex", "453.povray", "456.hmmer", "458.sjeng", "462.libquantum",
	"464.h264ref", "470.lbm", "473.astar", "482.sphinx3", "483.xalancbmk",
}

// Figure3Curve is one (trace, set count) miss-ratio curve pair.
type Figure3Curve struct {
	Trace  string
	Sets   int
	Exact  []float64 // miss ratio per associativity 1..MaxAssoc
	Approx []float64
}

// MaxAbsError reports the largest exact-vs-approx deviation on the curve.
func (c Figure3Curve) MaxAbsError() float64 {
	max := 0.0
	for i := range c.Exact {
		d := math.Abs(c.Exact[i] - c.Approx[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Figure3Result holds all curves.
type Figure3Result struct {
	Config Figure3Config
	Curves []Figure3Curve
}

// RunFigure3 simulates exact and lossy traces across the cache grid.
func RunFigure3(cfg Figure3Config, tc *TraceCache) (*Figure3Result, error) {
	if cfg.N <= 0 {
		cfg.N = 2 * DefaultTraceLen
	}
	cfg.fill(figure3PaperSubset...)
	if len(cfg.SetCounts) == 0 {
		cfg.SetCounts = []int{512, 2048, 8192, 32768}
	}
	if cfg.MaxAssoc <= 0 {
		cfg.MaxAssoc = 32
	}
	res := &Figure3Result{Config: cfg}
	for _, model := range cfg.Models {
		exact, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lossy, err := compress(exact, cfg.lossy())
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", model, err)
		}
		approx, err := lossy.decode(false)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", model, err)
		}
		ge, err := cheetah.NewGrid(cfg.SetCounts, cfg.MaxAssoc)
		if err != nil {
			return nil, err
		}
		ga, err := cheetah.NewGrid(cfg.SetCounts, cfg.MaxAssoc)
		if err != nil {
			return nil, err
		}
		ge.AccessAll(exact)
		ga.AccessAll(approx)
		for i, sets := range cfg.SetCounts {
			res.Curves = append(res.Curves, Figure3Curve{
				Trace:  model,
				Sets:   sets,
				Exact:  ge.Simulators()[i].MissRatios(),
				Approx: ga.Simulators()[i].MissRatios(),
			})
		}
	}
	return res, nil
}

// Render prints miss-ratio series (assoc 1,2,4,8,16,32) per curve, with
// the exact/approx pairs side by side, plus the max deviation.
func (r *Figure3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: LRU miss ratio, exact vs approximate (lossy) traces\n")
	fmt.Fprintf(w, "  N=%d, L=%d, eps=%.2f; columns are associativities\n",
		r.Config.N, r.Config.IntervalLen, r.Config.Epsilon)
	assocs := []int{1, 2, 4, 8, 16, 32}
	fmt.Fprintf(w, "%-16s %7s %6s", "trace", "sets", "kind")
	for _, a := range assocs {
		if a <= r.Config.MaxAssoc {
			fmt.Fprintf(w, " %7s", fmt.Sprintf("a=%d", a))
		}
	}
	fmt.Fprintf(w, " %8s\n", "maxerr")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "%-16s %7d %6s", shortName(c.Trace), c.Sets, "exact")
		for _, a := range assocs {
			if a <= r.Config.MaxAssoc {
				fmt.Fprintf(w, " %7.4f", c.Exact[a-1])
			}
		}
		fmt.Fprintf(w, "\n%-16s %7s %6s", "", "", "approx")
		for _, a := range assocs {
			if a <= r.Config.MaxAssoc {
				fmt.Fprintf(w, " %7.4f", c.Approx[a-1])
			}
		}
		fmt.Fprintf(w, " %8.4f\n", c.MaxAbsError())
	}
}

// Figure4Config parameterises the byte-translation ablation (trace 470,
// 256k sets in the paper). It runs one model, by default 470.lbm; N
// defaults to 2·DefaultTraceLen.
type Figure4Config struct {
	Params
	Sets     int // default 4096 (scaled from the paper's 256k)
	MaxAssoc int // default 32
}

// Figure4Result holds the three miss-ratio curves and the footprints.
type Figure4Result struct {
	Config        Figure4Config
	Exact         []float64
	Translation   []float64
	NoTranslation []float64

	ExactFootprint   int
	TransFootprint   int
	NoTransFootprint int
}

// RunFigure4 measures the impact of disabling byte translation.
func RunFigure4(cfg Figure4Config, tc *TraceCache) (*Figure4Result, error) {
	if cfg.N <= 0 {
		cfg.N = 2 * DefaultTraceLen
	}
	cfg.fill("470.lbm")
	if cfg.Sets <= 0 {
		cfg.Sets = 4096
	}
	if cfg.MaxAssoc <= 0 {
		cfg.MaxAssoc = 32
	}
	exact, err := tc.Get(cfg.Models[0], cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lossy, err := compress(exact, cfg.lossy())
	if err != nil {
		return nil, err
	}
	approx, err := lossy.decode(false)
	if err != nil {
		return nil, err
	}
	noTrans, err := lossy.decode(true)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{
		Config:           cfg,
		ExactFootprint:   Footprint(exact),
		TransFootprint:   Footprint(approx),
		NoTransFootprint: Footprint(noTrans),
	}
	for _, tr := range []struct {
		addrs []uint64
		out   *[]float64
	}{
		{exact, &res.Exact},
		{approx, &res.Translation},
		{noTrans, &res.NoTranslation},
	} {
		sim := cheetah.MustNew(cfg.Sets, cfg.MaxAssoc)
		sim.AccessAll(tr.addrs)
		*tr.out = sim.MissRatios()
	}
	return res, nil
}

// Render prints the three curves.
func (r *Figure4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: impact of disabling byte translation on trace %s (%d sets)\n",
		r.Config.Models[0], r.Config.Sets)
	fmt.Fprintf(w, "  footprints: exact=%d translated=%d no-translation=%d distinct blocks\n",
		r.ExactFootprint, r.TransFootprint, r.NoTransFootprint)
	assocs := []int{1, 2, 4, 8, 16, 32}
	fmt.Fprintf(w, "%-16s", "curve")
	for _, a := range assocs {
		if a <= r.Config.MaxAssoc {
			fmt.Fprintf(w, " %7s", fmt.Sprintf("a=%d", a))
		}
	}
	fmt.Fprintln(w)
	rows := []struct {
		name string
		data []float64
	}{
		{"exact", r.Exact},
		{"translation", r.Translation},
		{"no translation", r.NoTranslation},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-16s", row.name)
		for _, a := range assocs {
			if a <= r.Config.MaxAssoc {
				fmt.Fprintf(w, " %7.4f", row.data[a-1])
			}
		}
		fmt.Fprintln(w)
	}
}

// Figure5Config parameterises the C/DC predictor comparison. Models
// default to all 22.
type Figure5Config struct {
	Params
}

// Figure5Row is one trace's predictor outcome shares, exact vs lossy.
type Figure5Row struct {
	Trace  string
	Exact  cdc.Counts
	Approx cdc.Counts
}

// Figure5Result holds all rows.
type Figure5Result struct {
	Config Figure5Config
	Rows   []Figure5Row
}

// RunFigure5 runs the C/DC predictor over exact and lossy traces.
func RunFigure5(cfg Figure5Config, tc *TraceCache) (*Figure5Result, error) {
	cfg.fill(ModelNames()...)
	res := &Figure5Result{Config: cfg}
	for _, model := range cfg.Models {
		exact, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lossy, err := compress(exact, cfg.lossy())
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", model, err)
		}
		approx, err := lossy.decode(false)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", model, err)
		}
		pe := cdc.MustNew(cdc.PaperConfig)
		pe.AccessAll(exact)
		pa := cdc.MustNew(cdc.PaperConfig)
		pa.AccessAll(approx)
		res.Rows = append(res.Rows, Figure5Row{Trace: model, Exact: pe.Counts(), Approx: pa.Counts()})
	}
	return res, nil
}

// Render prints outcome percentages, exact vs lossy, per trace.
func (r *Figure5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: C/DC address predictor, exact vs lossy traces\n")
	fmt.Fprintf(w, "  percentages of non-predicted / correct / incorrect addresses\n")
	fmt.Fprintf(w, "%-16s  %-23s  %-23s\n", "trace", "exact (np/cor/inc)", "lossy (np/cor/inc)")
	for _, row := range r.Rows {
		en, ec, ei := row.Exact.Fractions()
		an, ac, ai := row.Approx.Fractions()
		fmt.Fprintf(w, "%-16s  %6.1f%% %6.1f%% %6.1f%%  %6.1f%% %6.1f%% %6.1f%%\n",
			shortName(row.Trace), 100*en, 100*ec, 100*ei, 100*an, 100*ac, 100*ai)
	}
}

// Figure8Config parameterises the random-trace demonstration (paper:
// N = 100 M, L = 10 M, so 10 intervals). IntervalLen defaults to N/10;
// Models and Epsilon are ignored: the run uses the library's default ε.
type Figure8Config struct {
	Params
}

// Figure8Result reports the compression of a purely random 64-bit stream.
type Figure8Result struct {
	Config           Figure8Config
	Chunks           int64
	Imitations       int64
	CompressedBytes  int64
	RawBytes         int64
	CompressionRatio float64
	DecodedLen       int64
}

// RunFigure8 reproduces the urandom demonstration: all intervals of a
// stationary random stream look like the first, so a single chunk is
// stored and the compression ratio approaches N / L.
func RunFigure8(cfg Figure8Config) (*Figure8Result, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen
	}
	if cfg.IntervalLen <= 0 {
		cfg.IntervalLen = max(cfg.N/10, 1)
	}
	cfg.Epsilon = phase.DefaultEpsilon
	cfg.fill()
	lossy, err := compress(workload.Random(cfg.N, cfg.Seed), cfg.lossy())
	if err != nil {
		return nil, err
	}
	decoded, err := lossy.decode(false)
	if err != nil {
		return nil, err
	}
	raw := int64(cfg.N) * 8
	return &Figure8Result{
		Config:           cfg,
		Chunks:           lossy.stats.Chunks,
		Imitations:       lossy.stats.Imitations,
		CompressedBytes:  lossy.size,
		RawBytes:         raw,
		CompressionRatio: float64(raw) / float64(lossy.size),
		DecodedLen:       int64(len(decoded)),
	}, nil
}

// Render prints the Figure 8 style summary.
func (r *Figure8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: lossy compression of %d random 64-bit values (L=%d)\n",
		r.Config.N, r.Config.IntervalLen)
	fmt.Fprintf(w, "  chunks stored:     %d\n", r.Chunks)
	fmt.Fprintf(w, "  imitations:        %d\n", r.Imitations)
	fmt.Fprintf(w, "  raw bytes:         %d\n", r.RawBytes)
	fmt.Fprintf(w, "  compressed bytes:  %d\n", r.CompressedBytes)
	fmt.Fprintf(w, "  compression ratio: %.2f (paper: ~10 with 10 intervals)\n", r.CompressionRatio)
	fmt.Fprintf(w, "  decoded length:    %d (must equal N)\n", r.DecodedLen)
}

// LongTraceConfig parameterises the whole-execution claim of §6: the lossy
// compression ratio grows with trace length on phase-stable workloads.
// It runs one model, by default 482.sphinx3 (stable phases); IntervalLen
// defaults to DefaultTraceLen/50. N is ignored: Lengths sets each trace's
// length.
type LongTraceConfig struct {
	Params
	Lengths []int // default {1, 2, 4}·DefaultTraceLen
}

// LongTracePoint is one (length, BPA) sample.
type LongTracePoint struct {
	N      int
	BPA    float64
	Chunks int64
}

// LongTraceResult holds the BPA-vs-length series.
type LongTraceResult struct {
	Config LongTraceConfig
	Points []LongTracePoint
}

// RunLongTrace measures lossy BPA at increasing trace lengths.
func RunLongTrace(cfg LongTraceConfig, tc *TraceCache) (*LongTraceResult, error) {
	cfg.N = DefaultTraceLen
	if cfg.IntervalLen <= 0 {
		cfg.IntervalLen = cfg.N / 50
	}
	cfg.fill("482.sphinx3")
	if len(cfg.Lengths) == 0 {
		cfg.Lengths = []int{cfg.N, 2 * cfg.N, 4 * cfg.N}
	}
	res := &LongTraceResult{Config: cfg}
	for _, n := range cfg.Lengths {
		addrs, err := tc.Get(cfg.Models[0], n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lossy, err := compress(addrs, cfg.lossy())
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, LongTracePoint{N: n, BPA: lossy.bpa, Chunks: lossy.stats.Chunks})
	}
	return res, nil
}

// Render prints the BPA-vs-length series.
func (r *LongTraceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Whole-execution claim (§6): lossy BPA vs trace length, model %s\n", r.Config.Models[0])
	fmt.Fprintf(w, "%12s %10s %8s\n", "addresses", "BPA", "chunks")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12d %10.4f %8d\n", p.N, p.BPA, p.Chunks)
	}
}
