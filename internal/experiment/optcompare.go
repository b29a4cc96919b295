package experiment

import (
	"fmt"
	"io"

	"atc/internal/cheetah"
	"atc/internal/opt"
)

// OptCompareConfig parameterises the OPT-fidelity extension: the paper
// verifies that lossy traces preserve LRU miss ratios (Figure 3); this
// experiment additionally checks Belady/OPT miss ratios — the metric the
// Cheetah simulator the paper uses was originally built for — and the
// LRU/OPT gap, which cache-replacement studies read off such traces.
//
// Models default to a 4-model subset.
type OptCompareConfig struct {
	Params
	Sets int // default 1024
	Ways int // default 8
}

// OptCompareRow is one trace's LRU and OPT miss ratios, exact vs lossy.
type OptCompareRow struct {
	Trace               string
	LRUExact, LRUApprox float64
	OPTExact, OPTApprox float64
}

// OptCompareResult holds all rows.
type OptCompareResult struct {
	Config OptCompareConfig
	Rows   []OptCompareRow
}

// RunOptCompare simulates both replacement policies on both traces.
func RunOptCompare(cfg OptCompareConfig, tc *TraceCache) (*OptCompareResult, error) {
	cfg.fill("401.bzip2", "429.mcf", "453.povray", "464.h264ref")
	if cfg.Sets <= 0 {
		cfg.Sets = 1024
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 8
	}
	res := &OptCompareResult{Config: cfg}
	for _, model := range cfg.Models {
		exact, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		lossy, err := compress(exact, cfg.lossy())
		if err != nil {
			return nil, fmt.Errorf("optcompare %s: %w", model, err)
		}
		approx, err := lossy.decode(false)
		if err != nil {
			return nil, fmt.Errorf("optcompare %s: %w", model, err)
		}
		row := OptCompareRow{Trace: model}
		for _, v := range []struct {
			addrs []uint64
			lru   *float64
			optr  *float64
		}{
			{exact, &row.LRUExact, &row.OPTExact},
			{approx, &row.LRUApprox, &row.OPTApprox},
		} {
			lru := cheetah.MustNew(cfg.Sets, cfg.Ways)
			lru.AccessAll(v.addrs)
			*v.lru = lru.MissRatio(cfg.Ways)
			o, err := opt.SimulateSetAssociative(v.addrs, cfg.Sets, cfg.Ways)
			if err != nil {
				return nil, err
			}
			*v.optr = o.MissRatio()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison.
func (r *OptCompareResult) Render(w io.Writer) {
	fmt.Fprintf(w, "OPT fidelity extension: LRU and Belady/OPT miss ratios, exact vs lossy\n")
	fmt.Fprintf(w, "  cache: %d sets x %d ways; N=%d, L=%d, eps=%.2f\n",
		r.Config.Sets, r.Config.Ways, r.Config.N, r.Config.IntervalLen, r.Config.Epsilon)
	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %10s\n",
		"trace", "LRU exact", "LRU lossy", "OPT exact", "OPT lossy", "gap kept")
	for _, row := range r.Rows {
		gapExact := row.LRUExact - row.OPTExact
		gapApprox := row.LRUApprox - row.OPTApprox
		kept := "yes"
		if (gapExact-gapApprox) > 0.1 || (gapApprox-gapExact) > 0.1 {
			kept = "no"
		}
		fmt.Fprintf(w, "%-16s %10.4f %10.4f %10.4f %10.4f %10s\n",
			row.Trace, row.LRUExact, row.LRUApprox, row.OPTExact, row.OPTApprox, kept)
	}
}
