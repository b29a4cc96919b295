package experiment

import (
	"fmt"
	"io"
	"slices"

	"atc/internal/bytesort"
	"atc/internal/core"
)

// EpsilonSweepConfig parameterises the ε ablation: the paper states that
// ε = 0.1 balances compression ratio against fidelity (§5.2); the sweep
// makes that trade-off measurable. It runs one model, by default
// 482.sphinx3; Epsilon is ignored, and zero in the result's Config.
type EpsilonSweepConfig struct {
	Params
	Epsilons []float64 // default {0.01, 0.05, 0.1, 0.2, 0.5, 1.0}
}

// EpsilonPoint is one sweep sample: compression and fidelity at one ε.
type EpsilonPoint struct {
	Epsilon        float64
	BPA            float64
	Chunks         int64
	FootprintRatio float64 // decoded distinct / exact distinct (1.0 = faithful)
}

// EpsilonSweepResult holds the sweep.
type EpsilonSweepResult struct {
	Config EpsilonSweepConfig
	Points []EpsilonPoint
}

// RunEpsilonSweep measures BPA and footprint fidelity across thresholds.
func RunEpsilonSweep(cfg EpsilonSweepConfig, tc *TraceCache) (*EpsilonSweepResult, error) {
	cfg.fill("482.sphinx3")
	cfg.Epsilon = 0 // swept: set per point
	if len(cfg.Epsilons) == 0 {
		cfg.Epsilons = []float64{0.01, 0.05, 0.1, 0.2, 0.5, 1.0}
	}
	exact, err := tc.Get(cfg.Models[0], cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	exactFoot := Footprint(exact)
	res := &EpsilonSweepResult{Config: cfg}
	for _, eps := range cfg.Epsilons {
		opts := cfg.lossy()
		opts.Epsilon = eps
		lossy, err := compress(exact, opts)
		if err != nil {
			return nil, err
		}
		approx, err := lossy.decode(false)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, EpsilonPoint{
			Epsilon:        eps,
			BPA:            lossy.bpa,
			Chunks:         lossy.stats.Chunks,
			FootprintRatio: float64(Footprint(approx)) / float64(exactFoot),
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *EpsilonSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Epsilon sweep on %s (N=%d, L=%d): compression vs fidelity\n",
		r.Config.Models[0], r.Config.N, r.Config.IntervalLen)
	fmt.Fprintf(w, "%8s %10s %8s %16s\n", "eps", "BPA", "chunks", "footprint ratio")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8.3f %10.4f %8d %16.3f\n", p.Epsilon, p.BPA, p.Chunks, p.FootprintRatio)
	}
}

// IntervalSweepConfig parameterises the myopic-interval study (§5): with a
// short interval L, an unmitigated lossy compressor understates the trace
// footprint. The sweep reports the decoded footprint with and without byte
// translation across interval lengths. It runs one model, by default
// 429.mcf (large footprint, random-ish). IntervalLen is ignored, and zero
// in the result's Config; a zero BufferAddrs means L/10 at each point.
type IntervalSweepConfig struct {
	Params
	IntervalLens []int // default {N/200, N/100, N/50, N/20, N/10}
}

// IntervalPoint is one sweep sample.
type IntervalPoint struct {
	IntervalLen      int
	BPA              float64
	FootprintRatio   float64 // with translation
	NoTransFootRatio float64 // translation disabled (the myopic failure)
}

// IntervalSweepResult holds the sweep.
type IntervalSweepResult struct {
	Config IntervalSweepConfig
	Points []IntervalPoint
}

// RunIntervalSweep measures footprint fidelity across interval lengths.
func RunIntervalSweep(cfg IntervalSweepConfig, tc *TraceCache) (*IntervalSweepResult, error) {
	buf := cfg.BufferAddrs
	cfg.fill("429.mcf")
	cfg.IntervalLen, cfg.BufferAddrs = 0, buf // swept: set per point
	if len(cfg.IntervalLens) == 0 {
		cfg.IntervalLens = []int{cfg.N / 200, cfg.N / 100, cfg.N / 50, cfg.N / 20, cfg.N / 10}
	}
	exact, err := tc.Get(cfg.Models[0], cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	exactFoot := float64(Footprint(exact))
	res := &IntervalSweepResult{Config: cfg}
	for _, L := range cfg.IntervalLens {
		if L < 1 {
			continue
		}
		p := cfg.Params
		p.IntervalLen = L
		p.fill() // BufferAddrs = L/10 unless the caller set it
		lossy, err := compress(exact, p.lossy())
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
		res.Points = append(res.Points, IntervalPoint{
			IntervalLen:      L,
			BPA:              lossy.bpa,
			FootprintRatio:   float64(Footprint(approx)) / exactFoot,
			NoTransFootRatio: float64(Footprint(noTrans)) / exactFoot,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *IntervalSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Interval-length sweep on %s (N=%d): the myopic-interval problem\n",
		r.Config.Models[0], r.Config.N)
	fmt.Fprintf(w, "%12s %10s %18s %18s\n", "L", "BPA", "footprint(trans)", "footprint(no-tr)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12d %10.4f %18.3f %18.3f\n",
			p.IntervalLen, p.BPA, p.FootprintRatio, p.NoTransFootRatio)
	}
}

// BackendCompareConfig parameterises the back-end ablation: bytesort's
// gain should hold for any byte-level compressor, with the block-sorting
// back end ahead of flate. Models default to a representative 6-model
// subset and BufferAddrs to N/10; Backend is unused.
type BackendCompareConfig struct {
	Params
	Backends []string // default {"bsc", "flate"}
}

// BackendCompareRow is one (trace, backend) pair of BPA values.
type BackendCompareRow struct {
	Trace   string
	Backend string
	RawBPA  float64 // back end alone
	SortBPA float64 // bytesort + back end
	Gain    float64 // RawBPA / SortBPA
}

// BackendCompareResult holds all rows.
type BackendCompareResult struct {
	Config BackendCompareConfig
	Rows   []BackendCompareRow
}

// RunBackendCompare measures bytesort's gain under each back end.
func RunBackendCompare(cfg BackendCompareConfig, tc *TraceCache) (*BackendCompareResult, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen
	}
	if cfg.BufferAddrs <= 0 {
		cfg.BufferAddrs = max(cfg.N/10, 1)
	}
	cfg.fill("403.gcc", "410.bwaves", "429.mcf", "453.povray", "462.libquantum", "473.astar")
	if len(cfg.Backends) == 0 {
		cfg.Backends = []string{"bsc", "flate"}
	}
	res := &BackendCompareResult{Config: cfg}
	for _, model := range cfg.Models {
		addrs, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, backend := range cfg.Backends {
			raw, err := CompressRawSize(addrs, backend)
			if err != nil {
				return nil, err
			}
			blob, err := CompressBytesort(addrs, cfg.BufferAddrs, bytesort.Sorted, backend)
			if err != nil {
				return nil, err
			}
			row := BackendCompareRow{
				Trace:   model,
				Backend: backend,
				RawBPA:  bpa(raw, len(addrs)),
				SortBPA: bpa(int64(len(blob)), len(addrs)),
			}
			if row.SortBPA > 0 {
				row.Gain = row.RawBPA / row.SortBPA
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render prints the comparison.
func (r *BackendCompareResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Backend ablation: bytesort gain under different byte-level back ends\n")
	fmt.Fprintf(w, "%-16s %-8s %10s %10s %8s\n", "trace", "backend", "raw BPA", "bsort BPA", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-8s %10.3f %10.3f %8.2f\n",
			row.Trace, row.Backend, row.RawBPA, row.SortBPA, row.Gain)
	}
}

// HistorySweepConfig parameterises the phase-table capacity ablation. It
// runs one model, by default 471.omnetpp (alternating phases).
type HistorySweepConfig struct {
	Params
	Capacities []int // default {1, 2, 4, 16, 64, 256}
}

// HistoryPoint is one capacity sample.
type HistoryPoint struct {
	Capacity int
	BPA      float64
	Chunks   int64
}

// HistorySweepResult holds the sweep.
type HistorySweepResult struct {
	Config HistorySweepConfig
	Points []HistoryPoint
}

// RunHistorySweep measures the phase-table capacity's effect on chunk reuse.
func RunHistorySweep(cfg HistorySweepConfig, tc *TraceCache) (*HistorySweepResult, error) {
	cfg.fill("471.omnetpp")
	if len(cfg.Capacities) == 0 {
		cfg.Capacities = []int{1, 2, 4, 16, 64, 256}
	}
	exact, err := tc.Get(cfg.Models[0], cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &HistorySweepResult{Config: cfg}
	for _, capn := range cfg.Capacities {
		opts := cfg.lossy()
		opts.TableCapacity = capn
		lossy, err := compress(exact, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, HistoryPoint{Capacity: capn, BPA: lossy.bpa, Chunks: lossy.stats.Chunks})
	}
	return res, nil
}

// Render prints the sweep.
func (r *HistorySweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Phase-table capacity sweep on %s (N=%d, L=%d)\n",
		r.Config.Models[0], r.Config.N, r.Config.IntervalLen)
	fmt.Fprintf(w, "%10s %10s %8s\n", "capacity", "BPA", "chunks")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d %10.4f %8d\n", p.Capacity, p.BPA, p.Chunks)
	}
}

// SegmentSweepConfig parameterises the segmented-lossless ablation: cutting
// the lossless stream into independently compressed segments buys the lossy
// pipeline's embarrassing parallelism at a BPA cost, because every segment
// restarts the bytesort and back-end context. The sweep measures that
// capacity-vs-throughput trade across segment sizes. It runs one model, by
// default 429.mcf; BufferAddrs defaults to N/10, and IntervalLen and
// Epsilon are ignored.
type SegmentSweepConfig struct {
	Params
	SegmentAddrs []int // default {-1 (single chunk), N, N/2, N/4, N/8, N/16}
}

// SegmentPoint is one sweep sample: compression at one segment size.
type SegmentPoint struct {
	SegmentAddrs int // -1 = legacy single chunk
	BPA          float64
	Chunks       int64
	Overhead     float64 // BPA / single-chunk BPA - 1
}

// SegmentSweepResult holds the sweep.
type SegmentSweepResult struct {
	Config SegmentSweepConfig
	Points []SegmentPoint
}

// RunSegmentSweep measures the lossless BPA-vs-segment-size curve. Every
// point is verified to round-trip bit exactly.
func RunSegmentSweep(cfg SegmentSweepConfig, tc *TraceCache) (*SegmentSweepResult, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen
	}
	if cfg.BufferAddrs <= 0 {
		cfg.BufferAddrs = max(cfg.N/10, 1)
	}
	cfg.fill("429.mcf")
	if len(cfg.SegmentAddrs) == 0 {
		cfg.SegmentAddrs = []int{-1, cfg.N, cfg.N / 2, cfg.N / 4, cfg.N / 8, cfg.N / 16}
	}
	exact, err := tc.Get(cfg.Models[0], cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &SegmentSweepResult{Config: cfg}
	baseline := 0.0
	for _, seg := range cfg.SegmentAddrs {
		if seg == 0 {
			continue // 0 would silently mean "library default"; keep points explicit
		}
		lossless, err := compress(exact, core.Options{
			Workers:      cfg.Workers,
			Mode:         core.Lossless,
			Backend:      cfg.Backend,
			BufferAddrs:  cfg.BufferAddrs,
			SegmentAddrs: seg,
		})
		if err != nil {
			return nil, err
		}
		decoded, err := lossless.decode(false)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(decoded, exact) {
			return nil, fmt.Errorf("experiment: segment %d: lossless round trip diverges", seg)
		}
		v := lossless.bpa
		p := SegmentPoint{SegmentAddrs: seg, BPA: v, Chunks: lossless.stats.Chunks}
		if seg < 0 {
			baseline = v
		}
		if baseline > 0 {
			p.Overhead = v/baseline - 1
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Render prints the sweep.
func (r *SegmentSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Lossless segment-size sweep on %s (N=%d): BPA cost of parallelism\n",
		r.Config.Models[0], r.Config.N)
	fmt.Fprintf(w, "%12s %10s %8s %10s\n", "segment", "BPA", "chunks", "overhead")
	for _, p := range r.Points {
		seg := fmt.Sprintf("%d", p.SegmentAddrs)
		if p.SegmentAddrs < 0 {
			seg = "single"
		}
		fmt.Fprintf(w, "%12s %10.4f %8d %9.2f%%\n", seg, p.BPA, p.Chunks, 100*p.Overhead)
	}
}
