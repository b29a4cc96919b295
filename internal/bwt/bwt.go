// Package bwt implements the Burrows–Wheeler transform and its inverse.
//
// The transform uses the virtual-sentinel convention: conceptually a unique
// smallest symbol is appended to the input, rotations of the extended string
// are sorted, and the last column is emitted. The sentinel itself is not
// written to the output; its row index (the "primary index") is returned
// alongside the n transformed bytes. This matches the suffix order produced
// by a plain suffix array, so the forward transform reduces to suffix
// sorting, done here by induced sorting (SA-IS) in O(n) time whatever the
// input, including the long repeats BWT blocks frequently hold.
//
// The inverse walks one table packed as bzip2 packs its tt: one uint32
// per row holding the next row in its top 24 bits and the row's byte in
// the low 8, so each output byte costs one dependent load. A row index must fit in 24
// bits, which caps the inverse at MaxInverseLen = 1<<24 - 1 bytes.
package bwt

import (
	"errors"
	"fmt"
	"iter"
	"slices"
)

// ErrBadPrimary is returned by Inverse when the primary index is out of range.
var ErrBadPrimary = errors.New("bwt: primary index out of range")

// ErrCorrupt reports transform data whose inverse cycle is inconsistent
// with the claimed primary index: the input was damaged in transit or the
// primary belongs to a different block.
var ErrCorrupt = errors.New("bwt: corrupt transform data")

// Transform computes the BWT of data. It returns the n output bytes and the
// primary index p in [1, n] (row of the virtual sentinel in the sorted
// rotation matrix). Transforming an empty slice returns (nil, 0).
// The output slice is freshly allocated; data is not modified.
// Suffix positions are int32, so len(data) must stay below 1<<31-1, and
// InverseInto inverts no more than MaxInverseLen bytes.
func Transform(data []byte) (out []byte, primary int) {
	n := len(data)
	if n == 0 {
		return nil, 0
	}
	sa := suffixArray(data)
	out = make([]byte, n)
	// Row 0 is the rotation that starts with the sentinel; its last column
	// entry is the final byte of the input.
	out[0] = data[n-1]
	w := 1
	for k, s := range sa {
		if s == 0 {
			// This row's last column is the sentinel: record its position.
			primary = k + 1
			continue
		}
		out[w] = data[s-1]
		w++
	}
	return out, primary
}

// Inverse reconstructs the original data from a BWT output and primary index.
func Inverse(out []byte, primary int) ([]byte, error) {
	s, _, err := InverseInto(nil, nil, out, primary)
	return s, err
}

// MaxInverseLen is the longest transform InverseInto inverts: its table
// packs a row index into the top 24 bits of each entry.
const MaxInverseLen = 1<<24 - 1

// ErrTooLong is returned by InverseInto for input longer than
// MaxInverseLen.
var ErrTooLong = errors.New("bwt: transform too long to invert")

// InverseInto is Inverse with caller-owned working storage: dst receives
// the reconstructed bytes and tt is the (n+1)-entry table the cycle walk
// needs — both are grown only when too small, so a caller recycling them
// inverts block after block without allocating. It returns the
// reconstructed slice (aliasing dst's storage unless grown) and the
// possibly-grown scratch, which the caller should retain even on error.
func InverseInto(dst []byte, tt []int32, out []byte, primary int) ([]byte, []int32, error) {
	var counts [256]int
	for _, b := range out {
		counts[b]++
	}
	return InverseCountedInto(dst, tt, out, primary, &counts)
}

// InverseCountedInto is InverseInto for a caller that already holds the
// byte counts of out, as a move-to-front decoder does once it has emitted
// them; counts must be exactly those counts.
//
// The table is packed as bzip2's tt: one entry per row of the (n+1)-row
// matrix, holding the row that the LF mapping takes it to above the
// row's last-column byte, row<<8 | byte. Two branch-free loops build it, one on
// each side of the sentinel's row, and the walk then costs one dependent
// load per byte.
func InverseCountedInto(dst []byte, tt []int32, out []byte, primary int, counts *[256]int) ([]byte, []int32, error) {
	n := len(out)
	if n > MaxInverseLen {
		return nil, tt, fmt.Errorf("%w: %d bytes, at most %d", ErrTooLong, n, MaxInverseLen)
	}
	if n == 0 {
		if primary != 0 {
			return nil, tt, ErrBadPrimary
		}
		return nil, tt, nil
	}
	if primary < 1 || primary > n {
		return nil, tt, fmt.Errorf("%w: %d not in [1,%d]", ErrBadPrimary, primary, n)
	}
	// lf[c]: the first-column row of the next c to come in the last
	// column. Row 0 of the first column is the sentinel, hence the 1.
	var lf [256]uint32
	row := uint32(1)
	for c, k := range counts {
		lf[c] = row
		row += uint32(k)
	}
	if cap(tt) < n+1 {
		tt = make([]int32, n+1)
	}
	tt = tt[:n+1]
	// Last-column row i holds out[i] below the sentinel's row and
	// out[i-1] above it.
	for i, c := range out[:primary] {
		tt[i] = int32(lf[c]<<8 | uint32(c))
		lf[c]++
	}
	tt[primary] = 0 // never read: the walk ends at the sentinel's row
	above := tt[primary+1:]
	for i, c := range out[primary:] {
		above[i] = int32(lf[c]<<8 | uint32(c))
		lf[c]++
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	s := dst[:n]
	// Row 0 is the rotation that starts with the sentinel, so its
	// last-column byte ends the block; LF steps back one byte at a time,
	// and the last step lands on the sentinel's row.
	i := 0
	for k := len(s) - 1; k >= 0; k-- {
		if i == primary {
			return nil, tt, fmt.Errorf("%w: cycle hit sentinel early (wrong primary?)", ErrCorrupt)
		}
		e := uint32(tt[i])
		s[k] = byte(e)
		i = int(e >> 8)
	}
	if i != primary {
		return nil, tt, fmt.Errorf("%w: cycle did not terminate at sentinel (wrong primary?)", ErrCorrupt)
	}
	return s, tt, nil
}

// suffixArray returns the suffix array of data: the start of every suffix,
// in ascending order of the suffixes, where a suffix that is a prefix of
// another sorts first (as if data ended with the virtual sentinel).
func suffixArray(data []byte) []int32 {
	sa := make([]int32, len(data))
	sais(data, sa, 256)
	return sa
}

// symbol is the alphabet sais sorts: the input bytes at the top level and
// the names of the reduced strings below it.
type symbol interface{ byte | int32 }

// sais fills sa with the suffix array of text, whose symbols lie in
// [0, k), by induced sorting (SA-IS: Nong, Zhang and Chan, "Two Efficient
// Algorithms for Linear Time Suffix Array Construction", IEEE TC 2011).
//
// Suffix i is S-type if it is smaller than suffix i+1 and L-type if it is
// larger; suffix n-1 is L-type, being larger than the empty suffix that
// the sentinel stands for. An S-type suffix with an L-type predecessor is
// an LMS (leftmost-S) suffix. Given the LMS suffixes in order at the tails
// of their first-symbol buckets, a left-to-right scan induces every L-type
// suffix from its successor, and a right-to-left scan then every S-type
// one. Inducing from the LMS suffixes in any order instead sorts the LMS
// substrings (from one LMS position to the next, inclusive); naming equal
// substrings alike gives a reduced string at most half as long whose suffix
// array, found by recursion, is the order of the LMS suffixes. Each level
// is linear, so the whole sort is O(n).
//
// The reduced string and its suffix array live in sa itself, so a level
// allocates only its two k-entry bucket tables. A zero entry in sa is an
// empty slot: suffix 0 has no predecessor to induce, so it never needs to
// be told apart from one.
func sais[T symbol](text []T, sa []int32, k int) {
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
		induceL(text, sa, freq, bkt)
		induceS(text, sa, freq, bkt)
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
			sais(reduced, lms, int(name))
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
	induceL(text, sa, freq, bkt)
	induceS(text, sa, freq, bkt)
}

// lmsDown yields the LMS positions of text from last to first.
func lmsDown[T symbol](text []T) iter.Seq[int] {
	return func(yield func(int) bool) {
		sType := false // type of suffix i+1; suffix n-1 is L-type
		for i := len(text) - 2; i >= 0; i-- {
			switch c0, c1 := text[i], text[i+1]; {
			case c0 < c1:
				sType = true
			case c0 > c1:
				if sType && !yield(i+1) {
					return
				}
				sType = false
			}
		}
	}
}

// induceL scans sa left to right and places each L-type suffix, starting
// with n-1, at the head of its bucket once its successor has been seen.
// The predecessor of a suffix already in place is L-type exactly when its
// symbol is not smaller.
func induceL[T symbol](text []T, sa, freq, bkt []int32) {
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

// induceS scans sa right to left and places each S-type suffix at the tail
// of its bucket once its successor has been seen. Each bucket fills with
// S-type suffixes from the tail down ahead of the scan, so a suffix whose
// slot lies at or beyond its bucket's fill point is S-type; with an equal
// symbol its predecessor shares its type. On return bkt holds the start of
// each bucket's S-type run.
func induceS[T symbol](text []T, sa, freq, bkt []int32) {
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

// bucketStarts sets bkt[c] to the first slot of symbol c's bucket.
func bucketStarts(freq, bkt []int32) {
	sum := int32(0)
	for c, f := range freq {
		bkt[c] = sum
		sum += f
	}
}

// bucketEnds sets bkt[c] to one past the last slot of symbol c's bucket.
func bucketEnds(freq, bkt []int32) {
	sum := int32(0)
	for c, f := range freq {
		sum += f
		bkt[c] = sum
	}
}
