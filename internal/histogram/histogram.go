// Package histogram implements the sorted byte-histograms of Section 5.1 of
// the paper: per-byte-position value histograms over an interval of 64-bit
// addresses, their sorted forms, the stable-sort permutations, the interval
// distance D, and the byte translations t[j] used to imitate one interval
// with another.
//
// For an interval of L addresses, h[j](i) counts addresses whose byte of
// order j equals i (j=0 is the least-significant byte, matching the paper's
// Σ b[j]·2^(8j) convention). The sorted histogram h′[j] lists the 256 counts
// in decreasing order; the permutation p[j] satisfies h′[j](i) = h[j](p[j](i))
// and breaks ties by increasing byte value (a stable sort). The distance
// between intervals is D(A,B) = max_j d(h′A[j], h′B[j]) with
// d(h1,h2) = (1/L)·Σ|h1(i)−h2(i)| ∈ [0,2]. The translation from A to B is
// the permutation t[j] with t[j](pA[j](i)) = pB[j](i): it maps the k-th most
// frequent byte value of A at position j to the k-th most frequent byte
// value of B.
package histogram

import (
	"math/bits"
	"sort"
)

// Positions is the number of byte positions in a 64-bit address.
const Positions = 8

// Set holds the per-position histograms of one interval, plus the sorted
// forms and permutations required for distance and translation computation.
// Build one incrementally with Add and call Finalize before comparing.
type Set struct {
	N      int64                 // number of addresses accumulated
	H      [Positions][256]int64 // unsorted histograms
	Sorted [Positions][256]int64 // histograms sorted in decreasing order
	Perm   [Positions][256]uint8 // Perm[j][rank] = byte value at that rank
	final  bool
}

// Add accumulates one address into the histograms.
func (s *Set) Add(addr uint64) {
	for j := 0; j < Positions; j++ {
		s.H[j][byte(addr>>(8*uint(j)))]++
	}
	s.N++
	s.final = false
}

// AddSlice accumulates many addresses. The eight byte positions are
// unrolled so the per-address cost is eight increments, not a counted
// loop of shifts — this is the serial section of the lossy front end, so
// it runs once per coded address.
//
//atc:hotpath
func (s *Set) AddSlice(addrs []uint64) {
	h := &s.H
	for _, a := range addrs {
		h[0][byte(a)]++
		h[1][byte(a>>8)]++
		h[2][byte(a>>16)]++
		h[3][byte(a>>24)]++
		h[4][byte(a>>32)]++
		h[5][byte(a>>40)]++
		h[6][byte(a>>48)]++
		h[7][byte(a>>56)]++
	}
	s.N += int64(len(addrs))
	s.final = false
}

// Finalize computes the sorted histograms and permutations. It is
// idempotent and must be called after the last Add and before Distance,
// UnsortedDistance or Translation are used with this Set.
func (s *Set) Finalize() {
	if s.final {
		return
	}
	for j := 0; j < Positions; j++ {
		var idx [256]int
		for i := range idx {
			idx[i] = i
		}
		h := &s.H[j]
		sort.SliceStable(idx[:], func(a, b int) bool {
			return h[idx[a]] > h[idx[b]]
		})
		for rank, v := range idx {
			s.Perm[j][rank] = uint8(v)
			s.Sorted[j][rank] = h[v]
		}
	}
	s.final = true
}

// Compute builds a finalized Set from a slice of addresses.
func Compute(addrs []uint64) *Set {
	s := &Set{}
	s.AddSlice(addrs)
	s.Finalize()
	return s
}

// ComputeInto builds a finalized Set from addrs into s, reusing its
// storage: a caller recycling Sets (the compressor's front end keeps a
// small pool, refilled by phase-table evictions) computes per-interval
// histograms with zero allocation. Equivalent to *s = *Compute(addrs).
//
//atc:hotpath
func ComputeInto(s *Set, addrs []uint64) {
	s.Reset()
	s.AddSlice(addrs)
	s.Finalize()
}

// Reset clears the Set for reuse.
func (s *Set) Reset() {
	*s = Set{}
}

// SummaryBuckets is the number of rank buckets a Summary condenses each
// sorted 256-entry histogram into (32 consecutive ranks per bucket).
const SummaryBuckets = 8

// summaryBucketShift converts a rank in [0,256) to its bucket: 256/8 = 32
// ranks per bucket = rank >> 5.
const summaryBucketShift = 5

// Summary condenses a finalized Set into Positions × SummaryBuckets
// normalised bucket masses: Summary[j][k] is the fraction of the interval's
// addresses whose byte-j value has sorted rank in bucket k. Because each
// bucket mass is a partial sum of the normalised sorted histogram, the
// triangle inequality gives, for any two intervals A and B and every
// position j,
//
//	d(h′A[j], h′B[j]) = Σ_i |a_i/N_A − b_i/N_B|
//	                  ≥ Σ_k |Σ_{i∈bucket k} (a_i/N_A − b_i/N_B)|
//	                  = Σ_k |S_A[j][k] − S_B[j][k]|
//
// so SummaryDistance is a lower bound on the per-position sorted-histogram
// distance, and the interval distance D(A,B) = max_j d_j is bounded below
// by max_j Σ_k |S_A[j][k] − S_B[j][k]|. phase.Table uses this to reject
// non-matching candidates with 64 float operations instead of 2048.
type Summary [Positions][SummaryBuckets]float64

// Summarize fills sum from a finalized Set. An empty Set (N == 0)
// summarises to all zeros.
func Summarize(s *Set, sum *Summary) {
	if s.N == 0 {
		*sum = Summary{}
		return
	}
	f := 1 / float64(s.N)
	for j := 0; j < Positions; j++ {
		h := &s.Sorted[j]
		b := &sum[j]
		*b = [SummaryBuckets]float64{}
		for i := 0; i < 256; i++ {
			b[i>>summaryBucketShift] += float64(h[i]) * f
		}
	}
}

// SummaryDistance returns the bucket-mass L1 distance at byte position j:
// Σ_k |a[j][k] − b[j][k]|, a lower bound on PositionDistance of the
// underlying sets (see Summary). The zero-N edge case is covered too: an
// empty interval's summary is all zeros, so the bound is Σ_k b[j][k] ≤ 1,
// below the 2 that histDistance reports for an empty-vs-nonempty pair.
//
//atc:hotpath
func SummaryDistance(a, b *Summary, j int) float64 {
	sum := 0.0
	for k := 0; k < SummaryBuckets; k++ {
		d := a[j][k] - b[j][k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// histDistance computes Σ|a(i)/na − b(i)/nb| over the 256 entries, which is
// the paper's d with each histogram normalised by its own interval length.
// For equal lengths this is exactly (1/L)·Σ|a−b|. Result in [0,2].
func histDistance(a, b *[256]int64, na, nb int64) float64 {
	if na == 0 || nb == 0 {
		if na == nb {
			return 0
		}
		return 2
	}
	fa, fb := 1/float64(na), 1/float64(nb)
	sum := 0.0
	for i := 0; i < 256; i++ {
		d := float64(a[i])*fa - float64(b[i])*fb
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// Distance computes the interval distance D(A,B): the maximum over byte
// positions of the sorted-histogram distance. Both sets must be finalized.
func Distance(a, b *Set) float64 {
	max := 0.0
	for j := 0; j < Positions; j++ {
		d := histDistance(&a.Sorted[j], &b.Sorted[j], a.N, b.N)
		if d > max {
			max = d
		}
	}
	return max
}

// PositionDistance computes d(h′A[j], h′B[j]) on the sorted histograms at
// byte position j — one of the eight terms whose maximum is Distance. Both
// sets must be finalized. phase.Table evaluates positions one at a time so
// a candidate whose running maximum already disqualifies it is abandoned
// without touching the remaining positions; a fully-evaluated candidate's
// maximum is bit-identical to Distance.
//
//atc:hotpath
func PositionDistance(a, b *Set, j int) float64 {
	return histDistance(&a.Sorted[j], &b.Sorted[j], a.N, b.N)
}

// UnsortedDistance computes d(hA[j], hB[j]) on the raw (unsorted)
// histograms at byte position j. The paper uses it to decide whether byte
// position j needs translation at all.
func UnsortedDistance(a, b *Set, j int) float64 {
	return histDistance(&a.H[j], &b.H[j], a.N, b.N)
}

// Translation returns the byte translation t at position j mapping interval
// a's byte values onto interval b's: t[pA[j](i)] = pB[j](i).
// Both sets must be finalized. The result is always a permutation of
// [0,255].
func Translation(a, b *Set, j int) (t [256]uint8) {
	for i := 0; i < 256; i++ {
		t[a.Perm[j][i]] = b.Perm[j][i]
	}
	return t
}

// TranslationMask returns a bitmask of byte positions j for which the
// unsorted histogram distance between a and b exceeds eps — exactly the
// positions the paper translates ("we translate bytes only for values of j
// for which this is necessary").
func TranslationMask(a, b *Set, eps float64) uint8 {
	var mask uint8
	for j := 0; j < Positions; j++ {
		if UnsortedDistance(a, b, j) > eps {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// Translations bundles the per-position byte translations of one imitation.
type Translations struct {
	Mask uint8                 // positions to translate
	T    [Positions][256]uint8 // translation tables, never read where Mask is clear
}

// BuildTranslations computes the translations needed to make interval a
// imitate interval b at threshold eps.
func BuildTranslations(a, b *Set, eps float64) *Translations {
	tr := &Translations{Mask: TranslationMask(a, b, eps)}
	for j := 0; j < Positions; j++ {
		if tr.Mask&(1<<uint(j)) != 0 {
			tr.T[j] = Translation(a, b, j)
		}
	}
	return tr
}

// ApplySlice rewrites addresses in place, one pass per translated byte
// position: each pass replaces byte j of every address with t[j] of it.
// Positions outside Mask are never touched, so a zero Mask is free.
//
//atc:hotpath
func (tr *Translations) ApplySlice(addrs []uint64) {
	for m := tr.Mask; m != 0; m &= m - 1 {
		sh := 8 * uint(bits.TrailingZeros8(m))
		t := &tr.T[sh/8]
		for i, a := range addrs {
			addrs[i] = a&^(0xff<<sh) | uint64(t[byte(a>>sh)])<<sh
		}
	}
}

// IsPermutation reports whether table t is a permutation of [0,255];
// translations always are, and property tests rely on this check.
func IsPermutation(t *[256]uint8) bool {
	var seen [256]bool
	for _, v := range t {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
