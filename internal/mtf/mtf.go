// Package mtf implements the move-to-front transform and the zero-run
// (RUNA/RUNB) encoding used between the Burrows–Wheeler transform and the
// entropy coder, mirroring the bzip2 pipeline that the paper uses as its
// byte-level back end.
//
// Symbol space of the run-length encoded stream:
//
//	0        RUNA (contributes 1<<k to a zero-run length)
//	1        RUNB (contributes 2<<k to a zero-run length)
//	2..256   MTF values 1..255 (value v encodes as symbol v+1)
//	257      EOB, end of block
//
// Zero runs are encoded in bijective base 2, exactly as in bzip2: a run of
// length r emits digits d0,d1,... where digit k is RUNA (weight 1<<k) or
// RUNB (weight 2<<k) and r = Σ weight(k).
package mtf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// Symbol constants for the run-length encoded MTF stream.
const (
	RunA    = 0
	RunB    = 1
	EOB     = 257
	NumSyms = 258 // alphabet size for the entropy coder
)

var errCorrupt = errors.New("mtf: corrupt symbol stream")

// Encode applies move-to-front to data and returns the zero-run encoded
// symbol stream, terminated by EOB.
func Encode(data []byte) []uint16 {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	syms := make([]uint16, 0, len(data)/2+16)
	zeroRun := 0
	flushRun := func() {
		r := zeroRun
		for r > 0 {
			if r&1 == 1 {
				syms = append(syms, RunA)
				r = (r - 1) / 2
			} else {
				syms = append(syms, RunB)
				r = (r - 2) / 2
			}
		}
		zeroRun = 0
	}
	for _, b := range data {
		if order[0] == b {
			zeroRun++
			continue
		}
		flushRun()
		syms = append(syms, uint16(toFront(&order, b)+1))
	}
	flushRun()
	return append(syms, EOB)
}

// Decode reverses Encode. It consumes symbols up to and including the first
// EOB and returns the reconstructed bytes together with the number of
// symbols consumed.
func Decode(syms []uint16) ([]byte, int, error) {
	return DecodeInto(make([]byte, 0, len(syms)*2), syms)
}

// DecodeInto is Decode appending into dst (which is truncated first): a
// caller holding a reusable buffer — the bsc Reader recycling its block
// working state — decodes without allocating once dst has grown to the
// workload's block size. The returned slice shares dst's storage unless
// growth forced a reallocation.
func DecodeInto(dst []byte, syms []uint16) ([]byte, int, error) {
	return DecodeIntoLimit(dst, syms, math.MaxInt)
}

// DecodeIntoLimit is DecodeInto failing when a zero run would take the
// output past limit bytes. Runs are the one symbol whose expansion the
// symbol count does not bound — n RUNA/RUNB digits expand to as many as
// 2^(n+1)-2 bytes — so a decoder of untrusted symbols passes the length
// it expects.
func DecodeIntoLimit(dst []byte, syms []uint16, limit int) ([]byte, int, error) {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	out := dst[:0]
	i := 0
	for i < len(syms) {
		s := syms[i]
		switch {
		case s == EOB:
			return out, i + 1, nil
		case s == RunA || s == RunB:
			// Collect the whole bijective base-2 run.
			run := 0
			shift := uint(0)
			for i < len(syms) && (syms[i] == RunA || syms[i] == RunB) {
				if syms[i] == RunA {
					run += 1 << shift
				} else {
					run += 2 << shift
				}
				shift++
				i++
				if run > limit-len(out) {
					return nil, 0, fmt.Errorf("%w: output exceeds %d bytes", errCorrupt, limit)
				}
			}
			front := order[0]
			for k := 0; k < run; k++ {
				out = append(out, front)
			}
		case s >= 2 && s <= 256:
			pos := int(s) - 1
			b := order[pos]
			copy(order[1:pos+1], order[:pos])
			order[0] = b
			out = append(out, b)
			i++
		default:
			return nil, 0, fmt.Errorf("%w: symbol %d", errCorrupt, s)
		}
	}
	return nil, 0, fmt.Errorf("%w: missing EOB", errCorrupt)
}

// toFront moves b, which is not at the front of order, to the front and
// returns its former position. The search is bytes.IndexByte, which is
// assembly-backed: after the BWT most bytes not at the front sit deep in
// the table.
func toFront(order *[256]byte, b byte) int {
	j := bytes.IndexByte(order[1:], b) + 1
	copy(order[1:j+1], order[:j])
	order[0] = b
	return j
}
