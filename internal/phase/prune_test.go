package phase

import (
	"math/rand"
	"testing"

	"atc/internal/histogram"
)

// genIntervals produces a stream of interval histograms with phase
// structure: a handful of base phases plus offset-shifted and noisy
// variants, so runs exercise exact ties, near-threshold distances, table
// churn and eviction.
func genIntervals(rng *rand.Rand, n, phases, intervalLen int) []*histogram.Set {
	bases := make([][]uint64, phases)
	for p := range bases {
		addrs := make([]uint64, intervalLen)
		base := rng.Uint64() &^ 0xFFFFFF
		spread := 1 << (4 + rng.Intn(16))
		for i := range addrs {
			addrs[i] = base + uint64(rng.Intn(spread))*8
		}
		bases[p] = addrs
	}
	out := make([]*histogram.Set, n)
	for i := range out {
		src := bases[rng.Intn(phases)]
		addrs := make([]uint64, len(src))
		offset := uint64(rng.Intn(4)) << 40 // sorted histograms are offset-invariant
		for j, a := range src {
			addrs[j] = a + offset
		}
		// Sometimes perturb a fraction of the interval so distances land
		// near (above and below) typical ε values instead of at 0.
		if rng.Intn(3) == 0 {
			k := rng.Intn(len(addrs)/4 + 1)
			for j := 0; j < k; j++ {
				addrs[rng.Intn(len(addrs))] = rng.Uint64()
			}
		}
		out[i] = histogram.Compute(addrs)
	}
	return out
}

// TestMatchEquivalentToExhaustive drives random workloads through the
// table and requires the pruned Match to return byte-identical decisions
// (chunk pick, distance, and ok) to the exhaustive FIFO reference scan at
// every step — the property the classify stage's correctness rests on:
// pruning must change cost, never output.
func TestMatchEquivalentToExhaustive(t *testing.T) {
	epsilons := []float64{0.01, 0.05, 0.1, 0.3, 1.0, 2.0}
	capacities := []int{1, 2, 7, 32}
	// The last six trials, one per ε, run a default-capacity table: at
	// the small ε values it fills to well over 100 resident phases, so
	// Match also decides against a deep table, as it does on
	// phase-diverse traces.
	for trial := 0; trial < 46; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eps := epsilons[trial%len(epsilons)]
		capacity, n := capacities[trial%len(capacities)], 120
		if trial >= 40 {
			capacity, n = DefaultCapacity, 2*DefaultCapacity
		}
		tab := New(capacity, eps)
		intervals := genIntervals(rng, n, 1+rng.Intn(6), 400)
		nextChunk := 0
		for i, h := range intervals {
			wantID, wantDist, wantOK := tab.MatchExhaustive(h)
			gotID, gotDist, gotOK := tab.Match(h)
			if gotID != wantID || gotDist != wantDist || gotOK != wantOK {
				t.Fatalf("trial %d (eps=%v cap=%d) interval %d: Match = (%d, %v, %v), MatchExhaustive = (%d, %v, %v)",
					trial, eps, capacity, i, gotID, gotDist, gotOK, wantID, wantDist, wantOK)
			}
			if !gotOK {
				tab.Insert(nextChunk, h)
				nextChunk++
			}
		}
		if s := tab.Stats(); s.Pruned+s.Compared == 0 && s.Lookups > 0 && s.Resident > 0 {
			t.Fatalf("trial %d: no candidates visited despite %d lookups over %d resident", trial, s.Lookups, s.Resident)
		}
	}
}

// TestMatchEquivalenceExactTies forces exact-distance ties (identical
// histograms under different chunk IDs is impossible — the table forbids
// duplicate IDs, not duplicate histograms) and checks the tie goes to the
// FIFO-oldest entry on both paths even though Match visits in MRU order.
func TestMatchEquivalenceExactTies(t *testing.T) {
	tab := New(8, 2.0)
	h := mkHist(1, 0)
	dup1 := mkHist(1, 0) // identical contents, distance 0 to h
	dup2 := mkHist(1, 0)
	tab.Insert(10, dup1)
	tab.Insert(20, dup2)
	// Match something else first so MRU order differs from FIFO order.
	other := mkHist(9, 1<<20)
	tab.Match(other)
	wantID, wantDist, wantOK := tab.MatchExhaustive(h)
	gotID, gotDist, gotOK := tab.Match(h)
	if gotID != wantID || gotDist != wantDist || gotOK != wantOK {
		t.Fatalf("tie break: Match = (%d, %v, %v), exhaustive = (%d, %v, %v)",
			gotID, gotDist, gotOK, wantID, wantDist, wantOK)
	}
	if wantID != 10 {
		t.Fatalf("exact tie resolved to chunk %d, want FIFO-oldest 10", wantID)
	}
}

// TestSummaryLowerBound checks the mathematical core of the pruning rule
// on random pairs: the per-position summary distance never exceeds the
// true per-position distance (up to the pruneSlack rounding margin the
// table's rejection test allows for), and hence never exceeds the full
// interval distance.
func TestSummaryLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.Intn(2000), 1+rng.Intn(2000)
		a := make([]uint64, na)
		b := make([]uint64, nb)
		for i := range a {
			a[i] = rng.Uint64() >> uint(rng.Intn(40))
		}
		for i := range b {
			b[i] = rng.Uint64() >> uint(rng.Intn(40))
		}
		ha, hb := histogram.Compute(a), histogram.Compute(b)
		var sa, sb histogram.Summary
		histogram.Summarize(ha, &sa)
		histogram.Summarize(hb, &sb)
		full := histogram.Distance(ha, hb)
		for j := 0; j < histogram.Positions; j++ {
			lb := histogram.SummaryDistance(&sa, &sb, j)
			pd := histogram.PositionDistance(ha, hb, j)
			if lb > pd+pruneSlack {
				t.Fatalf("trial %d pos %d: summary bound %v exceeds position distance %v", trial, j, lb, pd)
			}
			if lb > full+pruneSlack {
				t.Fatalf("trial %d pos %d: summary bound %v exceeds interval distance %v", trial, j, lb, full)
			}
		}
	}
}

// TestMatchPrunes checks the bound actually fires: structurally distant
// phases under a tight ε must be rejected by summaries alone for the
// overwhelming majority of candidate visits.
func TestMatchPrunes(t *testing.T) {
	tab := New(64, 0.1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		addrs := make([]uint64, 500)
		base := uint64(i) << 32
		spread := 1 << (3 + i%12)
		for j := range addrs {
			addrs[j] = base + uint64(rng.Intn(spread))
		}
		tab.Insert(i, histogram.Compute(addrs))
	}
	probe := make([]uint64, 500)
	for j := range probe {
		probe[j] = rng.Uint64()
	}
	tab.Match(histogram.Compute(probe))
	s := tab.Stats()
	if s.Pruned+s.Compared != 64 {
		t.Fatalf("visited %d candidates, want 64", s.Pruned+s.Compared)
	}
	if s.Pruned < 32 {
		t.Fatalf("only %d of 64 candidates pruned; bound is not firing", s.Pruned)
	}
}

// TestLookupInsertO1Map pins the chunkID→slot map against the ring through
// heavy churn: every resident ID resolves, every evicted ID does not, and
// eviction order stays FIFO.
func TestLookupInsertO1Map(t *testing.T) {
	tab := New(16, 2.0)
	for id := 0; id < 200; id++ {
		tab.Insert(id, mkHist(int64(id), uint64(id)<<24))
		oldest := id - 16 + 1
		if oldest < 0 {
			oldest = 0
		}
		for probe := 0; probe <= id; probe++ {
			_, ok := tab.Lookup(probe)
			if want := probe >= oldest; ok != want {
				t.Fatalf("after insert %d: Lookup(%d) = %v, want %v", id, probe, ok, want)
			}
		}
	}
	if s := tab.Stats(); s.Evictions != 200-16 {
		t.Fatalf("evictions = %d, want %d", s.Evictions, 200-16)
	}
}
