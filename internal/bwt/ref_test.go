package bwt

// A reference suffix sort: plain SA-IS, without run chains or the
// interleaved byte histogram. Each induce pass steps through a run one
// suffix at a time, and every level allocates its bucket tables.
// TestSuffixArrayMatchesRef holds sais to it on the blocks bsc sorts and
// on SA-IS's hard cases.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refSuffixArray is suffixArray by the reference sort.
func refSuffixArray(data []byte) []int32 {
	sa := make([]int32, len(data))
	refSais(data, sa, 256)
	return sa
}

// refSais is sais with make for its bucket tables and the plain induce
// passes below.
func refSais[T symbol](text []T, sa []int32, k int) {
	clear(sa)
	n := len(text)
	if n < 2 {
		return
	}
	freq := make([]int32, k)
	for _, c := range text {
		freq[c]++
	}
	bkt := make([]int32, k)

	// Sort the LMS substrings.
	bucketEnds(freq, bkt)
	n1 := 0
	for p := range lmsDown(text) {
		c := text[p]
		bkt[c]--
		sa[bkt[c]] = int32(p)
		n1++
	}
	if n1 > 0 {
		refInduceL(text, sa, freq, bkt)
		refInduceS(text, sa, freq, bkt)
		// bkt holds the start of each bucket's S-type run, so j is S-type
		// exactly when its slot lies at or beyond it.
		m := 0
		for i, j := range sa {
			if j > 0 && i >= int(bkt[text[j]]) && text[j-1] > text[j] {
				sa[m] = j
				m++
			}
		}

		// Name the LMS substrings in their sorted order. The length of the
		// substring at p is kept in the slot for p/2 (LMS positions are at
		// least two apart) until its name replaces it; equal lengths and
		// symbols make equal substrings, since the symbols fix the types.
		// The last substring runs into the sentinel and so equals no other.
		lms, names := sa[:n1], sa[n1:]
		clear(names)
		end := n
		for p := range lmsDown(text) {
			names[p/2] = int32(end - p + 1)
			end = p
		}
		name := int32(0)
		prev, prevLen := 0, int32(0)
		for _, p := range lms {
			q, l := int(p), names[p/2]
			if l != prevLen || q+int(l) > n || prev+int(l) > n ||
				!slices.Equal(text[q:q+int(l)], text[prev:prev+int(l)]) {
				name++
			}
			names[p/2] = name
			prev, prevLen = q, l
		}

		// Gather the names in text order into the top of sa: the reduced
		// string, which the recursion sorts into lms.
		reduced := sa[n-n1:]
		w := n1
		for i := len(names) - 1; w > 0; i-- {
			if names[i] > 0 {
				w--
				reduced[w] = names[i] - 1
			}
		}
		if int(name) < n1 {
			refSais(reduced, lms, int(name))
		} else {
			for i, c := range reduced {
				lms[c] = int32(i)
			}
		}

		// Map each reduced suffix back to its LMS position.
		w = n1
		for p := range lmsDown(text) {
			w--
			reduced[w] = int32(p)
		}
		for i, r := range lms {
			lms[i] = reduced[r]
		}
		clear(sa[n1:])
	}

	// Put the sorted LMS suffixes at their bucket tails and induce the rest.
	bucketEnds(freq, bkt)
	for i := n1 - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = 0
		c := text[j]
		bkt[c]--
		sa[bkt[c]] = j
	}
	refInduceL(text, sa, freq, bkt)
	refInduceS(text, sa, freq, bkt)
}

// refInduceL is induceL placing one suffix per slot scanned.
func refInduceL[T symbol](text []T, sa, freq, bkt []int32) {
	bucketStarts(freq, bkt)
	n := len(text)
	c := text[n-1]
	sa[bkt[c]] = int32(n - 1)
	bkt[c]++
	for _, j := range sa {
		if j > 0 {
			if c0 := text[j-1]; c0 >= text[j] {
				sa[bkt[c0]] = j - 1
				bkt[c0]++
			}
		}
	}
}

// refInduceS is induceS placing one suffix per slot scanned.
func refInduceS[T symbol](text []T, sa, freq, bkt []int32) {
	bucketEnds(freq, bkt)
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j == 0 {
			continue
		}
		c0, c1 := text[j-1], text[j]
		if c0 < c1 || c0 == c1 && i >= int(bkt[c1]) {
			bkt[c0]--
			sa[bkt[c0]] = j - 1
		}
	}
}

// TestSuffixArrayMatchesRef requires the suffix sort to give the
// reference sort's suffix array on bytesort blocks of 403.gcc, whose
// long constant runs take the run chains, of 429.mcf, and on the inputs
// that drive SA-IS to its extremes.
func TestSuffixArrayMatchesRef(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	random64 := make([]byte, n)
	for i := range random64 {
		random64[i] = byte(rng.Intn(64))
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"gcc", gccBlock(t, n)},
		{"gcc900k", gccBlock(t, 900_000)},
		{"mcf", mcfBlock(t)},
		{"allsame", bytes.Repeat([]byte{'x'}, n)},
		{"period2", bytes.Repeat([]byte("ab"), n/2)},
		{"fibonacci", fibonacciWord(n)},
		{"random64", random64},
	}
	var sa []int32
	for _, c := range cases {
		sa = suffixArrayInto(sa, c.in)
		if got, want := sa[:len(c.in)], refSuffixArray(c.in); !slices.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Errorf("%s: suffix arrays first differ at row %d: %d, want %d", c.name, i, got[i], want[i])
		}
	}
}
