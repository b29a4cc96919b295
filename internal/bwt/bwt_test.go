package bwt

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"atc/internal/bytesort"
	"atc/internal/workload"
)

func TestTransformKnown(t *testing.T) {
	// Worked example: "ab" with sentinel.
	// Rotations of "ab$": "$ab"(L=b), "ab$"(L=$), "b$a"(L=a).
	// out = [b a], primary = 1.
	out, p := Transform([]byte("ab"))
	if !bytes.Equal(out, []byte("ba")) || p != 1 {
		t.Fatalf("Transform(ab) = %q, %d; want \"ba\", 1", out, p)
	}
}

func TestTransformBanana(t *testing.T) {
	in := []byte("banana")
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in) {
		t.Fatalf("round trip = %q, want %q", got, in)
	}
	// BWT of banana$ is well known: "annb$aa" -> without sentinel "annbaa", p=4.
	if !bytes.Equal(out, []byte("annbaa")) || p != 4 {
		t.Fatalf("Transform(banana) = %q, %d; want \"annbaa\", 4", out, p)
	}
}

func TestEmpty(t *testing.T) {
	out, p := Transform(nil)
	if out != nil || p != 0 {
		t.Fatalf("Transform(nil) = %v, %d", out, p)
	}
	got, err := Inverse(nil, 0)
	if err != nil || got != nil {
		t.Fatalf("Inverse(nil,0) = %v, %v", got, err)
	}
}

func TestSingleByte(t *testing.T) {
	out, p := Transform([]byte{7})
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("single byte round trip failed: %v %v", got, err)
	}
}

func TestAllSameByte(t *testing.T) {
	in := bytes.Repeat([]byte{'x'}, 1000)
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("run of identical bytes failed to round trip: %v", err)
	}
}

func TestRepetitivePatterns(t *testing.T) {
	cases := [][]byte{
		bytes.Repeat([]byte("ab"), 500),
		bytes.Repeat([]byte("abc"), 333),
		bytes.Repeat([]byte{0, 0, 1}, 400),
		append(bytes.Repeat([]byte{255}, 100), bytes.Repeat([]byte{0}, 100)...),
	}
	for i, in := range cases {
		out, p := Transform(in)
		got, err := Inverse(out, p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestOutputIsPermutation(t *testing.T) {
	in := []byte("the quick brown fox jumps over the lazy dog")
	out, _ := Transform(in)
	a := append([]byte(nil), in...)
	b := append([]byte(nil), out...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	if !bytes.Equal(a, b) {
		t.Fatal("BWT output is not a permutation of the input")
	}
}

func TestInverseBadPrimary(t *testing.T) {
	out, _ := Transform([]byte("hello"))
	if _, err := Inverse(out, 0); err == nil {
		t.Fatal("primary=0 accepted for nonempty data")
	}
	if _, err := Inverse(out, len(out)+1); err == nil {
		t.Fatal("primary > n accepted")
	}
}

func TestInverseWrongPrimaryDetected(t *testing.T) {
	// With a wrong (but in-range) primary the walk usually either hits the
	// sentinel early or ends elsewhere; it must not silently return garbage
	// of the wrong length.
	in := []byte("mississippi")
	out, p := Transform(in)
	for q := 1; q <= len(out); q++ {
		got, err := Inverse(out, q)
		if q == p {
			if err != nil || !bytes.Equal(got, in) {
				t.Fatalf("correct primary %d failed: %v", q, err)
			}
			continue
		}
		if err == nil && bytes.Equal(got, in) {
			t.Fatalf("wrong primary %d reproduced the input", q)
		}
	}
}

// TestInverseMaxLen inverts a MaxInverseLen-byte transform, whose rows
// fill all 24 bits of a table entry: a block of zero bytes, whose
// transform is itself with the sentinel in the last row.
func TestInverseMaxLen(t *testing.T) {
	zeros := make([]byte, MaxInverseLen)
	got, err := Inverse(zeros, len(zeros))
	if err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("Inverse of %d zero bytes: %v, equal %v", len(zeros), err, bytes.Equal(got, zeros))
	}
}

// TestInverseTooLong gives InverseInto one byte past MaxInverseLen, whose
// last row does not fit a table entry: it must fail with ErrTooLong, not
// panic, before allocating its table.
func TestInverseTooLong(t *testing.T) {
	out := make([]byte, MaxInverseLen+1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, tt, err := InverseInto(nil, nil, out, 1)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; tt != nil || alloc >= 1<<20 {
		t.Fatalf("allocated %d KiB and a %d-entry table, want < 1 MiB and none", alloc>>10, len(tt))
	}
}

func TestSuffixArrayAgainstNaive(t *testing.T) {
	decreasing := make([]byte, 256)
	for i := range decreasing {
		decreasing[i] = byte(255 - i)
	}
	// Lengths 0-2, then inputs whose only LMS suffix is the sentinel:
	// no position is smaller than its successor, so there is nothing to
	// recurse on.
	inputs := [][]byte{
		{}, {0}, {255}, {0, 0}, {0, 1}, {1, 0}, {255, 255},
		decreasing, []byte("zyyxxxw"), bytes.Repeat([]byte{9}, 50),
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		data := make([]byte, n)
		alpha := rng.Intn(4) + 2 // small alphabets stress tie-breaking
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		inputs = append(inputs, data)
	}
	for trial, data := range inputs {
		if got, want := suffixArray(data), naiveSuffixArray(data); !slices.Equal(got, want) {
			t.Fatalf("trial %d: sa = %v, want %v (data=%v)", trial, got, want, data)
		}
	}
}

// naiveSuffixArray sorts the suffixes of data by direct comparison.
func naiveSuffixArray(data []byte) []int32 {
	sa := make([]int32, len(data))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(data[sa[a]:], data[sa[b]:]) < 0
	})
	return sa
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out, p := Transform(data)
		got, err := Inverse(out, p)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]byte, 1<<18)
	for i := range in {
		in[i] = byte(rng.Intn(256))
	}
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatal("large random block failed to round trip")
	}
}

func TestLargeRepetitive(t *testing.T) {
	// Worst case for comparison sorts; must stay fast with the suffix sort.
	in := bytes.Repeat([]byte("aaaaaaab"), 1<<15)
	out, p := Transform(in)
	got, err := Inverse(out, p)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatal("large repetitive block failed to round trip")
	}
}

// fibonacciWord returns the first n bytes of the Fibonacci word over
// {a, b}: each prefix F(k) = F(k-1)F(k-2), which keeps the reduced
// strings of SA-IS repetitive through about log n levels of recursion
// (13 at 1 MiB).
func fibonacciWord(n int) []byte {
	a, b := []byte("a"), []byte("ab")
	for len(b) < n {
		a, b = b, append(append([]byte(nil), b...), a...)
	}
	return b[:n]
}

// gccBlock returns the first n bytes of bytesort's output for a
// cache-filtered 403.gcc trace: the kind of block bsc transforms.
func gccBlock(tb testing.TB, n int) []byte {
	addrs, err := workload.GenerateFiltered("403.gcc", n/8+1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	enc := bytesort.NewEncoder(&buf, len(addrs))
	if err := enc.WriteSlice(addrs); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[:n]
}

func BenchmarkTransform1MB(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, n)
	for i := range random {
		random[i] = byte(rng.Intn(64))
	}
	cases := []struct {
		name string
		in   func(b *testing.B) []byte
	}{
		{"random64", func(*testing.B) []byte { return random }},
		{"allsame", func(*testing.B) []byte { return bytes.Repeat([]byte{'x'}, n) }},
		{"period2", func(*testing.B) []byte { return bytes.Repeat([]byte("ab"), n/2) }},
		{"fibonacci", func(*testing.B) []byte { return fibonacciWord(n) }},
		{"gcc", func(b *testing.B) []byte { return gccBlock(b, n) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			in := c.in(b)
			b.SetBytes(int64(len(in)))
			for b.Loop() {
				Transform(in)
			}
		})
	}
}

// TestTransformAllocBound holds the forward transform to 16 bytes of
// allocation per input byte on inputs that drive SA-IS deep (Fibonacci)
// or leave it nothing to reduce (all-same).
func TestTransformAllocBound(t *testing.T) {
	const n = 1 << 20
	for name, in := range map[string][]byte{
		"allsame":   bytes.Repeat([]byte{'x'}, n),
		"fibonacci": fibonacciWord(n),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Transform(in)
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / n; perByte > 16 {
			t.Errorf("%s: Transform allocated %.1f B per input byte, want <= 16", name, perByte)
		}
	}
}

func FuzzTransform(f *testing.F) {
	f.Add(bytes.Repeat([]byte{7}, 64))
	f.Add(bytes.Repeat([]byte("ab"), 40))
	f.Add(bytes.Repeat([]byte("abc"), 30))
	f.Add(fibonacciWord(300))
	f.Add(append(bytes.Repeat([]byte{0x00}, 50), bytes.Repeat([]byte{0xFF}, 50)...))
	f.Add(append(bytes.Repeat([]byte{0xFF}, 50), bytes.Repeat([]byte{0x00}, 50)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		if got, want := suffixArray(data), naiveSuffixArray(data); !slices.Equal(got, want) {
			t.Fatalf("suffixArray = %v, want %v", got, want)
		}
		out, p := Transform(data)
		if len(out) != len(data) || !isPermutation(out, data) {
			t.Fatalf("Transform output %v is not a permutation of %v", out, data)
		}
		got, err := Inverse(out, p)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Inverse(Transform(x)) = %v, %v; want %v", got, err, data)
		}
	})
}

// FuzzInverse feeds InverseInto any bytes and any primary index: it
// returns an error wrapping ErrCorrupt or ErrBadPrimary, or a
// permutation of its input, and never panics. Each input is inverted
// twice, into fresh and into reused working storage.
func FuzzInverse(f *testing.F) {
	banana, p := Transform([]byte("banana"))
	f.Add(banana, p)
	f.Add(banana, p+1)
	f.Add([]byte{}, 0)
	f.Add([]byte{}, 1)
	f.Add([]byte{5}, 1)
	f.Add(bytes.Repeat([]byte("ab"), 20), 7)
	f.Add([]byte{0, 0, 0}, -1)
	f.Fuzz(func(t *testing.T, out []byte, primary int) {
		if len(out) > 4<<10 {
			return
		}
		dst, next := make([]byte, 3), make([]int32, 5)
		for range 2 {
			got, grown, err := InverseInto(dst, next, out, primary)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadPrimary) {
					t.Fatalf("InverseInto(%v, %d): unexpected error %v", out, primary, err)
				}
				return
			}
			if len(got) != len(out) || !isPermutation(got, out) {
				t.Fatalf("InverseInto(%v, %d) = %v, not a permutation of its input", out, primary, got)
			}
			dst, next = got, grown
		}
	})
}

func isPermutation(a, b []byte) bool {
	var count [256]int
	for _, c := range a {
		count[c]++
	}
	for _, c := range b {
		count[c]--
	}
	return count == [256]int{}
}

func BenchmarkInverse1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 1<<20)
	for i := range in {
		in[i] = byte(rng.Intn(64))
	}
	out, p := Transform(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Inverse(out, p); err != nil {
			b.Fatal(err)
		}
	}
}
