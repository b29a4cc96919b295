package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperIntervalA / paperIntervalB reproduce the §5.1 worked example:
// A = F200..F2FF, B = F300..F3FF (16-bit addresses).
func paperIntervalA() []uint64 {
	out := make([]uint64, 256)
	for i := range out {
		out[i] = 0xF200 + uint64(i)
	}
	return out
}

func paperIntervalB() []uint64 {
	out := make([]uint64, 256)
	for i := range out {
		out[i] = 0xF300 + uint64(i)
	}
	return out
}

func TestPaperExampleDistanceZero(t *testing.T) {
	a := Compute(paperIntervalA())
	b := Compute(paperIntervalB())
	if d := Distance(a, b); d != 0 {
		t.Fatalf("D(A,B) = %v, want 0 (sorted histograms identical)", d)
	}
}

func TestPaperExampleUnsortedDistances(t *testing.T) {
	a := Compute(paperIntervalA())
	b := Compute(paperIntervalB())
	// Byte 0: both uniform over 00..FF -> d = 0.
	if d := UnsortedDistance(a, b, 0); d != 0 {
		t.Fatalf("d(hA[0],hB[0]) = %v, want 0", d)
	}
	// Byte 1: A all F2, B all F3 -> d = 2 (maximum).
	if d := UnsortedDistance(a, b, 1); d != 2 {
		t.Fatalf("d(hA[1],hB[1]) = %v, want 2", d)
	}
}

func TestPaperExampleTranslation(t *testing.T) {
	a := Compute(paperIntervalA())
	b := Compute(paperIntervalB())
	tr := Translation(a, b, 1)
	if tr[0xF2] != 0xF3 {
		t.Fatalf("t[1](F2) = %#x, want F3", tr[0xF2])
	}
	if !IsPermutation(&tr) {
		t.Fatal("translation is not a permutation")
	}
	// The full imitation must be perfect on this example (paper: "the
	// imitation is perfect").
	full := BuildTranslations(a, b, 0.1)
	if full.Mask != 1<<1 {
		t.Fatalf("translation mask = %08b, want only byte 1", full.Mask)
	}
	addrs := paperIntervalA()
	full.ApplySlice(addrs)
	want := paperIntervalB()
	for i := range addrs {
		if addrs[i] != want[i] {
			t.Fatalf("imitated addr %d = %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestPermIsStableOnTies(t *testing.T) {
	// All byte values equally frequent: permutation must be the identity.
	addrs := make([]uint64, 256)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	s := Compute(addrs)
	for i := 0; i < 256; i++ {
		if s.Perm[0][i] != uint8(i) {
			t.Fatalf("tie-broken perm[0][%d] = %d, want %d", i, s.Perm[0][i], i)
		}
	}
}

func TestSortedIsDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 5000)
	for i := range addrs {
		addrs[i] = rng.Uint64() >> uint(rng.Intn(40))
	}
	s := Compute(addrs)
	for j := 0; j < Positions; j++ {
		for i := 1; i < 256; i++ {
			if s.Sorted[j][i] > s.Sorted[j][i-1] {
				t.Fatalf("Sorted[%d] not decreasing at %d", j, i)
			}
		}
	}
}

func TestSortedMatchesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 1000)
	for i := range addrs {
		addrs[i] = rng.Uint64()
	}
	s := Compute(addrs)
	for j := 0; j < Positions; j++ {
		var total int64
		for i := 0; i < 256; i++ {
			if s.Sorted[j][i] != s.H[j][s.Perm[j][i]] {
				t.Fatalf("Sorted[%d][%d] != H[%d][Perm[%d][%d]]", j, i, j, j, i)
			}
			total += s.Sorted[j][i]
		}
		if total != s.N {
			t.Fatalf("histogram %d sums to %d, want %d", j, total, s.N)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() *Set {
		addrs := make([]uint64, 500)
		for i := range addrs {
			addrs[i] = rng.Uint64() & 0xFFFFFF
		}
		return Compute(addrs)
	}
	a, b, c := mk(), mk(), mk()
	// Identity: D(x,x) = 0.
	if Distance(a, a) != 0 {
		t.Fatal("D(a,a) != 0")
	}
	// Symmetry.
	if math.Abs(Distance(a, b)-Distance(b, a)) > 1e-12 {
		t.Fatal("distance not symmetric")
	}
	// Bounds.
	for _, pair := range [][2]*Set{{a, b}, {b, c}, {a, c}} {
		d := Distance(pair[0], pair[1])
		if d < 0 || d > 2 {
			t.Fatalf("distance %v outside [0,2]", d)
		}
	}
	// Triangle inequality (holds per position for L1, and max of sums
	// bounds sum of maxes the right way).
	if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-12 {
		t.Fatal("triangle inequality violated")
	}
}

func TestDistanceEmptySets(t *testing.T) {
	a, b := &Set{}, &Set{}
	a.Finalize()
	b.Finalize()
	if Distance(a, b) != 0 {
		t.Fatal("two empty sets should have distance 0")
	}
	c := Compute([]uint64{1, 2, 3})
	if Distance(a, c) != 2 {
		t.Fatalf("empty-vs-nonempty distance = %v, want 2", Distance(a, c))
	}
}

func TestDistanceDifferentLengthsNormalised(t *testing.T) {
	// The same uniform structure at different lengths should be close.
	short := make([]uint64, 256)
	long := make([]uint64, 1024)
	for i := range short {
		short[i] = uint64(i)
	}
	for i := range long {
		long[i] = uint64(i % 256)
	}
	d := Distance(Compute(short), Compute(long))
	if d > 1e-9 {
		t.Fatalf("distance between scaled-identical intervals = %v", d)
	}
}

func TestTranslationIsPermutationProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		as := make([]uint64, 300)
		bs := make([]uint64, 300)
		for i := range as {
			as[i] = ra.Uint64()
			bs[i] = rb.Uint64()
		}
		a, b := Compute(as), Compute(bs)
		for j := 0; j < Positions; j++ {
			tr := Translation(a, b, j)
			if !IsPermutation(&tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslationMapsMostFrequentToMostFrequent(t *testing.T) {
	// Paper: "the most frequent byte of order j in interval A is replaced
	// with the most frequent byte of order j in interval B."
	as := []uint64{0x11, 0x11, 0x11, 0x22}
	bs := []uint64{0x77, 0x77, 0x77, 0x88}
	a, b := Compute(as), Compute(bs)
	tr := Translation(a, b, 0)
	if tr[0x11] != 0x77 {
		t.Fatalf("t(0x11) = %#x, want 0x77", tr[0x11])
	}
	if tr[0x22] != 0x88 {
		t.Fatalf("t(0x22) = %#x, want 0x88", tr[0x22])
	}
}

func TestTranslationPreservesSortedHistograms(t *testing.T) {
	// After translating A by t = Translation(A,B), the translated interval
	// must have exactly B's byte-value ranking structure wherever
	// histograms are "compatible"; at minimum its sorted histograms equal
	// A's (translation is a bijection on byte values).
	rng := rand.New(rand.NewSource(9))
	as := make([]uint64, 2000)
	bs := make([]uint64, 2000)
	for i := range as {
		as[i] = uint64(rng.Intn(1 << 20))
		bs[i] = uint64(rng.Intn(1<<20)) + (1 << 30)
	}
	a, b := Compute(as), Compute(bs)
	tr := BuildTranslations(a, b, 0.0) // translate every position
	translated := append([]uint64(nil), as...)
	tr.ApplySlice(translated)
	ta := Compute(translated)
	for j := 0; j < Positions; j++ {
		for i := 0; i < 256; i++ {
			if ta.Sorted[j][i] != a.Sorted[j][i] {
				t.Fatalf("translation changed sorted histogram at j=%d rank=%d", j, i)
			}
		}
	}
	// And the translated interval is now close to B in D-distance terms
	// whenever A and B were close in sorted-histogram terms.
	if Distance(ta, a) != 0 {
		t.Fatal("translated interval should keep A's sorted histograms")
	}
}

func TestTemporalStructurePreserved(t *testing.T) {
	// Translation is a per-byte bijection, so equal addresses stay equal
	// and distinct addresses stay distinct (the paper's argument for why
	// imitation preserves temporal structure).
	rng := rand.New(rand.NewSource(10))
	as := make([]uint64, 1000)
	for i := range as {
		as[i] = uint64(rng.Intn(64)) * 0x10001 // few distinct values, repeats
	}
	bs := make([]uint64, 1000)
	for i := range bs {
		bs[i] = uint64(rng.Intn(64))*0x10001 + 0x4200000000
	}
	a, b := Compute(as), Compute(bs)
	tr := BuildTranslations(a, b, 0.1)
	translated := append([]uint64(nil), as...)
	tr.ApplySlice(translated)
	for i := range as {
		for k := i + 1; k < len(as); k++ {
			if (as[i] == as[k]) != (translated[i] == translated[k]) {
				t.Fatalf("equality pattern broken at (%d,%d)", i, k)
			}
		}
	}
}

func TestIdentityTranslationWhenMaskZero(t *testing.T) {
	a := Compute(paperIntervalA())
	tr := BuildTranslations(a, a, 0.1)
	if tr.Mask != 0 {
		t.Fatalf("self-imitation mask = %08b, want 0", tr.Mask)
	}
	got := []uint64{0xDEADBEEF}
	tr.ApplySlice(got)
	if got[0] != 0xDEADBEEF {
		t.Fatalf("identity translation changed address: %#x", got[0])
	}
}

func TestAddMatchesCompute(t *testing.T) {
	addrs := []uint64{1, 5, 5, 9, 1 << 40}
	var s Set
	for _, a := range addrs {
		s.Add(a)
	}
	s.Finalize()
	c := Compute(addrs)
	if Distance(&s, c) != 0 || s.N != c.N {
		t.Fatal("incremental and batch construction disagree")
	}
}

func TestResetClears(t *testing.T) {
	s := Compute([]uint64{1, 2, 3})
	s.Reset()
	if s.N != 0 || s.H[0][1] != 0 {
		t.Fatal("Reset did not clear")
	}
}

func BenchmarkAdd(b *testing.B) {
	var s Set
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
}

func BenchmarkDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	as := make([]uint64, 10000)
	bs := make([]uint64, 10000)
	for i := range as {
		as[i], bs[i] = rng.Uint64(), rng.Uint64()
	}
	x, y := Compute(as), Compute(bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

// TestComputeIntoMatchesCompute: reuse of a dirty Set must be equivalent
// to a fresh Compute, including the AddSlice bulk path.
func TestComputeIntoMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, 5000)
	b := make([]uint64, 3000)
	for i := range a {
		a[i] = rng.Uint64()
	}
	for i := range b {
		b[i] = rng.Uint64() & 0xffff
	}
	s := Compute(a) // dirty it
	ComputeInto(s, b)
	want := Compute(b)
	if *s != *want {
		t.Fatal("ComputeInto on a dirty Set differs from a fresh Compute")
	}
}

// TestAddSliceMatchesAdd pins the unrolled bulk accumulate against the
// per-address path.
func TestAddSliceMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	addrs := make([]uint64, 4000)
	for i := range addrs {
		addrs[i] = rng.Uint64()
	}
	var bulk, single Set
	bulk.AddSlice(addrs)
	for _, a := range addrs {
		single.Add(a)
	}
	bulk.Finalize()
	single.Finalize()
	if bulk != single {
		t.Fatal("AddSlice diverges from per-address Add")
	}
}

// TestApplySliceTranslatesOnlyMaskedBytes checks the column-wise
// translation against a byte-by-byte reference, with every unmasked table
// filled with garbage: those tables must never be read.
func TestApplySliceTranslatesOnlyMaskedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tr := &Translations{Mask: uint8(rng.Intn(256))}
		for j := range tr.T {
			for i := range tr.T[j] {
				tr.T[j][i] = uint8(rng.Intn(256))
			}
		}
		addrs := make([]uint64, 100)
		for i := range addrs {
			addrs[i] = rng.Uint64()
		}
		want := make([]uint64, len(addrs))
		for i, a := range addrs {
			for j := 0; j < Positions; j++ {
				b := byte(a >> (8 * j))
				if tr.Mask&(1<<j) != 0 {
					b = tr.T[j][b]
				}
				want[i] |= uint64(b) << (8 * j)
			}
		}
		tr.ApplySlice(addrs)
		for i := range addrs {
			if addrs[i] != want[i] {
				t.Fatalf("mask %08b addr %d = %#x, want %#x", tr.Mask, i, addrs[i], want[i])
			}
		}
	}
}
