package experiment

import (
	"fmt"
	"io"

	"atc/internal/bytesort"
)

// Table3Config parameterises the lossless-vs-lossy comparison of the
// paper's Table 3 (1 G-address traces, L = 10 M, ε = 0.1 in the paper; the
// scaled defaults keep 20 intervals per trace). Models default to all 22,
// N to 4·DefaultTraceLen.
type Table3Config struct {
	Params
}

// Table3Row is one trace's lossless and lossy bits per address.
type Table3Row struct {
	Trace      string
	Lossless   float64
	Lossy      float64
	Chunks     int64
	Imitations int64
}

// Table3Result is the full comparison.
type Table3Result struct {
	Config       Table3Config
	Rows         []Table3Row
	MeanLossless float64
	MeanLossy    float64
}

// RunTable3 compresses each trace both ways and reports BPA.
func RunTable3(cfg Table3Config, tc *TraceCache) (*Table3Result, error) {
	if cfg.N <= 0 {
		cfg.N = 4 * DefaultTraceLen
	}
	cfg.fill(ModelNames()...)
	res := &Table3Result{Config: cfg}
	for _, model := range cfg.Models {
		addrs, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := Table3Row{Trace: model}

		// Lossless: bytesort with the small buffer, as in the paper.
		blob, err := CompressBytesort(addrs, cfg.BufferAddrs, bytesort.Sorted, cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("table3 %s lossless: %w", model, err)
		}
		row.Lossless = bpa(int64(len(blob)), len(addrs))

		// Lossy: the full ATC pipeline.
		lossy, err := compress(addrs, cfg.lossy())
		if err != nil {
			return nil, fmt.Errorf("table3 %s lossy: %w", model, err)
		}
		row.Lossy = lossy.bpa
		row.Chunks = lossy.stats.Chunks
		row.Imitations = lossy.stats.Imitations
		res.Rows = append(res.Rows, row)
	}
	n := float64(len(res.Rows))
	for _, r := range res.Rows {
		res.MeanLossless += r.Lossless / n
		res.MeanLossy += r.Lossy / n
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3: bits per address, lossless vs. lossy\n")
	fmt.Fprintf(w, "  traces: %d addresses, L=%d, eps=%.2f, backend=%s\n",
		r.Config.N, r.Config.IntervalLen, r.Config.Epsilon, r.Config.Backend)
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s\n", "trace", "lossless", "lossy", "chunks", "imit")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %8d %8d\n",
			row.Trace, row.Lossless, row.Lossy, row.Chunks, row.Imitations)
	}
	fmt.Fprintf(w, "%-16s %10.3f %10.3f\n", "arith. mean", r.MeanLossless, r.MeanLossy)
}
