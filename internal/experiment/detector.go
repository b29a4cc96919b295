package experiment

import (
	"fmt"
	"io"

	"atc/internal/histogram"
	"atc/internal/phase"
	"atc/internal/signature"
)

// DetectorCompareConfig parameterises the phase-detector ablation: the
// paper's sorted byte-histograms versus classic working-set signatures
// (Dhodapkar & Smith) as the online interval-matching criterion.
//
// The decisive scenario is a program whose phases recur in *different
// memory regions* (the myopic-interval discussion of §5): sorted
// histograms are region-invariant and match them (translation repairs the
// addresses); working-set signatures hash block identities and see
// nothing to reuse.
//
// Models default to a 6-model subset spanning the spectrum; BufferAddrs
// and Backend are unused.
type DetectorCompareConfig struct {
	Params
	SigThreshold  float64 // signature threshold; default 0.5
	SignatureBits int     // default 16384
}

// DetectorCompareRow is one trace's detector comparison.
type DetectorCompareRow struct {
	Trace string
	// Chunks created by each detector (fewer = more reuse found).
	HistChunks int
	SigChunks  int
	// Mean post-hoc sorted-histogram distance of the matches each detector
	// accepted (lower = the accepted matches really were similar in the
	// sense that matters for replay fidelity).
	HistMatchQuality float64
	SigMatchQuality  float64
}

// DetectorCompareResult holds all rows.
type DetectorCompareResult struct {
	Config DetectorCompareConfig
	Rows   []DetectorCompareRow
}

// RunDetectorCompare drives both detectors over the same interval stream.
func RunDetectorCompare(cfg DetectorCompareConfig, tc *TraceCache) (*DetectorCompareResult, error) {
	cfg.fill("403.gcc", "429.mcf", "453.povray", "462.libquantum", "471.omnetpp", "482.sphinx3")
	if cfg.SigThreshold <= 0 {
		cfg.SigThreshold = 0.5
	}
	if cfg.SignatureBits <= 0 {
		cfg.SignatureBits = 16384
	}
	res := &DetectorCompareResult{Config: cfg}
	for _, model := range cfg.Models {
		addrs, err := tc.Get(model, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := DetectorCompareRow{Trace: model}

		histTab := phase.New(0, cfg.Epsilon)
		sigTab := signature.NewTable(0, cfg.SigThreshold)
		// Keep each chunk's histograms for post-hoc match-quality scoring
		// on both sides.
		chunkHists := map[int]*histogram.Set{}

		histNext, sigNext := 1, 1
		var histDists, sigDists []float64
		L := cfg.IntervalLen
		for start := 0; start+L <= len(addrs); start += L {
			interval := addrs[start : start+L]
			h := histogram.Compute(interval)
			sig := signature.MustNew(cfg.SignatureBits)
			sig.AddSlice(interval)

			if id, _, ok := histTab.Match(h); ok {
				histDists = append(histDists, histogram.Distance(chunkHists[id], h))
			} else {
				histTab.Insert(histNext, h)
				chunkHists[histNext] = h
				histNext++
				row.HistChunks++
			}
			if id, _, ok := sigTab.Match(sig); ok {
				if ch, ok := chunkHists[-id]; ok {
					sigDists = append(sigDists, histogram.Distance(ch, h))
				}
			} else {
				sigTab.Insert(sigNext, sig)
				// Store the signature-chunk's histograms under a negative
				// key so the two detectors' IDs cannot collide in the map.
				chunkHists[-sigNext] = h
				sigNext++
				row.SigChunks++
			}
		}
		row.HistMatchQuality = mean(histDists)
		row.SigMatchQuality = mean(sigDists)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Render prints the comparison.
func (r *DetectorCompareResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Phase-detector ablation: sorted byte-histograms (paper) vs working-set signatures\n")
	fmt.Fprintf(w, "  N=%d, L=%d, eps=%.2f, sig threshold=%.2f\n",
		r.Config.N, r.Config.IntervalLen, r.Config.Epsilon, r.Config.SigThreshold)
	fmt.Fprintf(w, "%-16s %12s %12s %14s %14s\n",
		"trace", "hist chunks", "sig chunks", "hist quality", "sig quality")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %12d %12d %14.4f %14.4f\n",
			row.Trace, row.HistChunks, row.SigChunks, row.HistMatchQuality, row.SigMatchQuality)
	}
	fmt.Fprintf(w, "(fewer chunks = more reuse; quality = mean histogram distance of accepted matches)\n")
}
