package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestOptCompareRunAndRender(t *testing.T) {
	tc := NewTraceCache()
	cfg := OptCompareConfig{
		Params: Params{Models: []string{"453.povray", "401.bzip2"}, N: tinyN},
		Sets:   256,
		Ways:   4,
	}
	res, err := RunOptCompare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// OPT is a lower bound on LRU for both traces.
		if row.OPTExact > row.LRUExact+1e-9 {
			t.Fatalf("%s: OPT exact %v above LRU %v", row.Trace, row.OPTExact, row.LRUExact)
		}
		if row.OPTApprox > row.LRUApprox+1e-9 {
			t.Fatalf("%s: OPT lossy %v above LRU %v", row.Trace, row.OPTApprox, row.LRUApprox)
		}
		// Ratios are miss ratios.
		for _, v := range []float64{row.LRUExact, row.LRUApprox, row.OPTExact, row.OPTApprox} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: miss ratio %v out of range", row.Trace, v)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "OPT fidelity") {
		t.Fatal("render output malformed")
	}
}

func TestOptCompareFidelityOnStableTrace(t *testing.T) {
	tc := NewTraceCache()
	cfg := OptCompareConfig{
		Params: Params{Models: []string{"453.povray"}, N: 100_000},
		Sets:   256,
		Ways:   4,
	}
	res, err := RunOptCompare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if d := row.OPTExact - row.OPTApprox; d > 0.1 || d < -0.1 {
		t.Fatalf("OPT miss ratio distortion %v on a stable trace", d)
	}
	if d := row.LRUExact - row.LRUApprox; d > 0.1 || d < -0.1 {
		t.Fatalf("LRU miss ratio distortion %v on a stable trace", d)
	}
}
