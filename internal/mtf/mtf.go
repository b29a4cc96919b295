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
//
// The inverse is one streaming Decoder, fed a symbol at a time: a block
// decoder hands it each Huffman symbol as it reads it, and the slice
// decoders DecodeInto and DecodeIntoLimit are loops over it. It counts
// the bytes it emits, which saves the inverse BWT its counting pass.
package mtf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
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
	var freqs [NumSyms]int64
	return EncodeInto(make([]uint16, 0, len(data)/2+16), data, &freqs)
}

// EncodeInto is Encode appending into syms (which is truncated first),
// and counting in freqs how many times each symbol occurs in the stream,
// EOB included: the frequencies an entropy coder builds its code from. A
// caller holding a reusable syms encodes without allocating once it has
// grown to the workload's block size. The returned slice shares syms'
// storage unless growth forced a reallocation.
func EncodeInto(syms []uint16, data []byte, freqs *[NumSyms]int64) []uint16 {
	*freqs = [NumSyms]int64{}
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	syms = syms[:0]
	zeroRun := 0
	flushRun := func() {
		r := zeroRun
		for r > 0 {
			if r&1 == 1 {
				syms = append(syms, RunA)
				freqs[RunA]++
				r = (r - 1) / 2
			} else {
				syms = append(syms, RunB)
				freqs[RunB]++
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
		s := toFront(&order, b) + 1
		syms = append(syms, uint16(s))
		freqs[s]++
	}
	flushRun()
	freqs[EOB]++
	return append(syms, EOB)
}

// Decode reverses Encode. It consumes symbols up to and including the first
// EOB and returns the reconstructed bytes together with the number of
// symbols consumed.
func Decode(syms []uint16) ([]byte, int, error) {
	return DecodeInto(make([]byte, 0, len(syms)*2), syms)
}

// DecodeInto is Decode appending into dst (which is truncated first): a
// caller holding a reusable buffer decodes without allocating once dst has
// grown to the workload's block size. The returned slice shares dst's
// storage unless growth forced a reallocation.
func DecodeInto(dst []byte, syms []uint16) ([]byte, int, error) {
	return DecodeIntoLimit(dst, syms, math.MaxInt)
}

// DecodeIntoLimit is DecodeInto failing when the output would pass limit
// bytes. Runs are the one symbol whose expansion the symbol count does not
// bound — n RUNA/RUNB digits expand to as many as 2^(n+1)-2 bytes — so a
// decoder of untrusted symbols passes the length it expects.
func DecodeIntoLimit(dst []byte, syms []uint16, limit int) ([]byte, int, error) {
	var d Decoder
	d.Reset(dst, limit)
	for i, s := range syms {
		eob, err := d.Put(int(s))
		if err != nil {
			return nil, 0, err
		}
		if eob {
			return d.out, i + 1, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: missing EOB", errCorrupt)
}

// Decoder inverts Encode one symbol at a time, so an entropy decoder can
// feed it each symbol as it reads it, with no symbol array in between.
// It counts each byte value as it emits it, which is the histogram the
// inverse BWT starts from, and fills a zero run in bulk once the run's
// last digit has arrived. Reset readies it for each stream.
//
// The output grows by append and never past the limit given to Reset.
// Every symbol but EOB adds at least one byte to the output or to a
// pending run, so a stream that fits the limit holds at most limit
// symbols before its EOB.
type Decoder struct {
	out    []byte
	limit  int
	run    int // zero-run length of the RUNA/RUNB digits read so far
	weight int // weight of a RUNA digit at the current position, 1<<k
	counts [256]int
	order  [256]byte
}

// Reset readies d to decode a new symbol stream into dst[:0], failing once
// the output would pass limit bytes. Passing the slice Bytes returned
// reuses it, so a steady stream of blocks decodes without allocating.
func (d *Decoder) Reset(dst []byte, limit int) {
	d.out = dst[:0]
	// No slice holds MaxInt/4 bytes; the clamp keeps the weight of a
	// run's digits from overflowing.
	d.limit = min(max(limit, 0), math.MaxInt/4)
	d.run, d.weight = 0, 1
	clear(d.counts[:])
	for i := range d.order {
		d.order[i] = byte(i)
	}
}

// Put decodes symbol s. It reports true at EOB, after which Bytes holds
// the whole output; on error d must be Reset before further use.
func (d *Decoder) Put(s int) (eob bool, err error) {
	if uint(s) <= RunB {
		// Digit k of a bijective base-2 run: RUNA weighs 1<<k, RUNB 2<<k.
		w := d.weight << s
		if w > d.limit-len(d.out)-d.run {
			return false, fmt.Errorf("%w: output exceeds %d bytes", errCorrupt, d.limit)
		}
		d.run += w
		d.weight <<= 1
		return false, nil
	}
	if d.run > 0 {
		d.flushRun()
	}
	if s == EOB {
		return true, nil
	}
	if uint(s) > EOB {
		return false, fmt.Errorf("%w: symbol %d", errCorrupt, s)
	}
	if len(d.out) == d.limit {
		return false, fmt.Errorf("%w: output exceeds %d bytes", errCorrupt, d.limit)
	}
	pos := s - 1
	b := d.order[pos]
	copy(d.order[1:pos+1], d.order[:pos])
	d.order[0] = b
	d.out = append(d.out, b)
	d.counts[b]++
	return false, nil
}

// flushRun appends the pending zero run: that many copies of the front
// byte.
func (d *Decoder) flushRun() {
	b, n := d.order[0], len(d.out)
	d.out = slices.Grow(d.out, d.run)[:n+d.run]
	fill := d.out[n:]
	for i := range fill {
		fill[i] = b
	}
	d.counts[b] += d.run
	d.run, d.weight = 0, 1
}

// Bytes returns the output decoded so far. It aliases the slice given to
// Reset unless growth forced a reallocation.
func (d *Decoder) Bytes() []byte { return d.out }

// Counts returns how many times each byte value occurs in Bytes.
func (d *Decoder) Counts() *[256]int { return &d.counts }

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
