// Package huffman implements length-limited canonical Huffman coding.
//
// It is used by the bsc block compressor as the entropy-coding stage. Code
// lengths are computed with a standard Huffman construction and then, if
// necessary, rebalanced to respect a maximum code length while keeping the
// Kraft inequality satisfied (the same strategy used by zlib). Codes are
// canonical: within a length, codes are assigned in increasing symbol order,
// so a decoder needs only the length table. Every length lies in
// [1, MaxBits], 0 marking a symbol without a code, and NewCodebook and
// Decoder.Reset validate a table by one check: at least one code, no length
// above MaxBits, and no more codes than the Kraft inequality allows. The
// Decoder builds a 1024-entry lookup table from the lengths and decodes a
// code of up to 10 bits with one lookup, longer ones by a short canonical
// walk; it takes input bytes only as codes need them, so framing that
// follows the code stream stays in place.
package huffman

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"atc/internal/bitio"
)

// MaxBits is the longest code this package builds or accepts, as in bzip2.
const MaxBits = 20

var (
	errNoSymbols  = errors.New("huffman: no symbols with nonzero frequency")
	errBadLengths = errors.New("huffman: invalid code length table")
)

// BuildLengths computes a length-limited Huffman code-length table from
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If exactly one symbol has nonzero frequency it is assigned length 1.
// maxBits must be in [1, MaxBits], and at least log2 of the number of
// symbols with nonzero frequency; lengths never exceed it. The frequencies
// must sum to at most math.MaxInt64.
func BuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	lengths := make([]uint8, len(freqs))
	if err := BuildLengthsInto(lengths, freqs, maxBits); err != nil {
		return nil, err
	}
	return lengths, nil
}

// smallAlphabet is the largest alphabet BuildLengthsInto builds with
// scratch on the stack alone; bsc's 258 symbols fit.
const smallAlphabet = 512

// BuildLengthsInto is BuildLengths writing the table into lengths, which
// must have len(freqs) entries. It allocates nothing for an alphabet of
// up to 512 symbols.
func BuildLengthsInto(lengths []uint8, freqs []int64, maxBits int) error {
	if maxBits < 1 || maxBits > MaxBits {
		return fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	if len(lengths) != len(freqs) {
		return fmt.Errorf("huffman: %d lengths for %d frequencies", len(lengths), len(freqs))
	}
	clear(lengths)
	var symBuf [smallAlphabet]int32
	syms := symBuf[:0]
	var total int64
	for sym, f := range freqs {
		if f > 0 {
			if total += f; total < 0 {
				return errors.New("huffman: frequencies overflow int64")
			}
			syms = append(syms, int32(sym))
		}
	}
	n := len(syms)
	switch n {
	case 0:
		return errNoSymbols
	case 1:
		lengths[syms[0]] = 1
		return nil
	}
	if n > 1<<maxBits {
		return fmt.Errorf("huffman: %d symbols do not fit in %d-bit codes", n, maxBits)
	}
	// Two-queue construction (van Leeuwen, 1976). Node i < n is the leaf
	// syms[i], in stable frequency order; node n+j is the j-th merge.
	// Merges come out in nondecreasing weight, so the lighter of the two
	// queue fronts is the lightest node left. A tie goes to the leaf: that
	// is the (weight, node index) order of a heap over the same nodes, so
	// the tree, and every length, is the heap construction's.
	slices.SortStableFunc(syms, func(a, b int32) int { return cmp.Compare(freqs[a], freqs[b]) })
	var weightBuf [2 * smallAlphabet]int64
	var parentBuf [2 * smallAlphabet]int32
	weight, parent := weightBuf[:], parentBuf[:]
	if n > smallAlphabet {
		weight, parent = make([]int64, 2*n-1), make([]int32, 2*n-1)
	}
	weight, parent = weight[:2*n-1], parent[:2*n-1]
	for i, sym := range syms {
		weight[i] = freqs[sym]
	}
	leaf, merged := 0, n // the fronts of the two queues
	for k := n; k < len(weight); k++ {
		for range 2 { // merge the two lightest nodes into node k
			i := merged
			if leaf < n && (merged == k || weight[leaf] <= weight[merged]) {
				i, leaf = leaf, leaf+1
			} else {
				merged++
			}
			weight[k] += weight[i]
			parent[i] = int32(k)
		}
	}
	// Depths from the root down: a parent's index is above its children's,
	// so it holds its depth before they read it. The root keeps depth 0.
	depth := parent
	for i := len(depth) - 2; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	for i, sym := range syms {
		lengths[sym] = uint8(depth[i])
	}
	if int(slices.Max(depth[:n])) > maxBits {
		limitLengths(freqs, lengths, syms, maxBits)
	}
	return nil
}

// limitLengths rebalances an over-deep code to respect maxBits; syms
// lists the symbols with a code, in any order, and is reordered. It
// clamps all lengths to maxBits, then restores the Kraft inequality by
// deepening the shallowest available codes, and finally reassigns
// lengths to symbols in frequency order so frequent symbols keep the
// short codes.
func limitLengths(freqs []int64, lengths []uint8, syms []int32, maxBits int) {
	var blCount [MaxBits + 1]int
	for _, sym := range syms {
		blCount[min(int(lengths[sym]), maxBits)]++
	}
	// Kraft sum in units of 2^-maxBits.
	var kraft int64
	for l := 1; l <= maxBits; l++ {
		kraft += int64(blCount[l]) << uint(maxBits-l)
	}
	limit := int64(1) << uint(maxBits)
	for kraft > limit {
		// Move one code from the deepest length < maxBits down one level.
		l := maxBits - 1
		for l > 0 && blCount[l] == 0 {
			l--
		}
		blCount[l]--
		blCount[l+1]++
		kraft -= int64(1) << uint(maxBits-l-1)
	}
	// Reassign: most frequent symbols get shortest lengths.
	slices.SortFunc(syms, func(a, b int32) int {
		if c := cmp.Compare(freqs[b], freqs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	idx := 0
	for l := 1; l <= maxBits; l++ {
		for k := 0; k < blCount[l]; k++ {
			lengths[syms[idx]] = uint8(l)
			idx++
		}
	}
}

// code is a validated canonical code: how many codes each length has and
// the first code of each length. It is the one construction behind both
// the Codebook and the Decoder.
type code struct {
	count     [MaxBits + 1]uint32
	firstCode [MaxBits + 1]uint32
	maxLen    uint // 0 until a successful build
}

// build fills c from a length table. It rejects a table with no code, a
// length above MaxBits, more than maxSyms symbols, or more codes than the
// Kraft inequality allows; an under-full table, as a single symbol gives,
// is accepted.
func (c *code) build(lengths []uint8) error {
	c.maxLen = 0
	if len(lengths) == 0 || len(lengths) > maxSyms {
		return errBadLengths
	}
	maxLen := uint(slices.Max(lengths))
	if maxLen == 0 || maxLen > MaxBits {
		return errBadLengths
	}
	clear(c.count[:])
	for _, l := range lengths {
		c.count[l]++
	}
	c.count[0] = 0
	// left counts the codes of length l still unassigned; it cannot
	// overflow, and goes negative exactly when the table is over-full.
	left, first := int64(1), uint32(0)
	for l := uint(1); l <= maxLen; l++ {
		if left = left<<1 - int64(c.count[l]); left < 0 {
			return errBadLengths
		}
		first = (first + c.count[l-1]) << 1
		c.firstCode[l] = first
	}
	c.maxLen = maxLen
	return nil
}

// Codebook holds canonical codes derived from a length table.
type Codebook struct {
	Lengths []uint8
	Codes   []uint32
}

// NewCodebook builds canonical codes from a length table. It accepts a
// table exactly when Decoder.Reset does: at least one code, every length
// at most MaxBits, and no over-full code; an under-full one, as produced
// by the single-symbol case, is permitted.
func NewCodebook(lengths []uint8) (*Codebook, error) {
	var c code
	if err := c.build(lengths); err != nil {
		return nil, err
	}
	return &Codebook{Lengths: slices.Clone(lengths), Codes: c.assign(nil, lengths)}, nil
}

// assign sets codes[:len(lengths)] to each symbol's canonical code, 0 for
// a symbol without one, growing codes only when too short.
func (c *code) assign(codes []uint32, lengths []uint8) []uint32 {
	next := c.firstCode
	codes = slices.Grow(codes[:0], len(lengths))[:len(lengths)]
	clear(codes)
	for sym, l := range lengths {
		if l > 0 {
			codes[sym] = next[l]
			next[l]++
		}
	}
	return codes
}

// Encoder writes symbols as canonical Huffman codes to a bit stream.
type Encoder struct {
	w       *bitio.Writer
	lengths []uint8
	codes   []uint32
	table   []uint32 // the code table Reset fills and reuses
}

// NewEncoder returns an Encoder using codebook cb on bit writer w.
func NewEncoder(cb *Codebook, w *bitio.Writer) *Encoder {
	return &Encoder{w: w, lengths: cb.Lengths, codes: cb.Codes}
}

// Reset readies e to write the canonical code of lengths, a table
// NewCodebook accepts, onto w. The code table is e's own and reused, so
// a steady stream of blocks encodes without allocating; lengths is kept,
// not copied, and must not change while e uses it. The zero Encoder is
// ready for Reset.
func (e *Encoder) Reset(lengths []uint8, w *bitio.Writer) error {
	var c code
	if err := c.build(lengths); err != nil {
		return err
	}
	e.table = c.assign(e.table, lengths)
	e.w, e.lengths, e.codes = w, lengths, e.table
	return nil
}

// WriteSymbol emits the code for sym.
func (e *Encoder) WriteSymbol(sym int) error {
	l := e.lengths[sym]
	if l == 0 {
		return fmt.Errorf("huffman: symbol %d has no code", sym)
	}
	return e.w.WriteBits(uint64(e.codes[sym]), uint(l))
}

// Decoder reads canonical Huffman codes from a bit stream.
//
// It decodes by table lookup (Moffat & Turpin, "On the implementation of
// minimum redundancy prefix codes", 1997; zlib's inflate works the same
// way): the next tableBits bits index a table whose entry gives the
// symbol and code length of every code no longer than tableBits, so a
// short code costs one lookup once its bits are held. Codes longer than
// the table — rare, since they belong to the rarest symbols — continue
// with the canonical first-code/count walk over the same bits, one length
// at a time.
type Decoder struct {
	r *bitio.Reader
	// table[v] is sym<<lenShift | len for the code that prefixes the
	// tableBits-bit value v, or 0 when v starts a longer code or none.
	table     [1 << maxTableBits]uint32
	tableBits uint
	code
	offset   [MaxBits + 1]uint32 // index into symOrder of first symbol of each length
	symOrder []uint32            // symbols sorted by (length, symbol)
}

const (
	maxTableBits = 10
	lenShift     = 5 // table entries keep the code length in the low 5 bits
	// maxSyms is the largest alphabet whose symbols fit a table entry.
	maxSyms = 1 << (32 - lenShift)
)

// Reset initialises d for a length table and bit reader, building its
// lookup table in place; once d has seen a table with as many symbols it
// does not allocate. It accepts a table exactly when NewCodebook does; on
// error d is left unusable until a successful Reset.
func (d *Decoder) Reset(lengths []uint8, r *bitio.Reader) error {
	if err := d.build(lengths); err != nil {
		return err
	}
	total := uint32(0)
	for l := uint(1); l <= d.maxLen; l++ {
		d.offset[l] = total
		total += d.count[l]
	}
	next := d.offset // per-length fill cursor into symOrder
	d.symOrder = slices.Grow(d.symOrder[:0], int(total))[:total]
	for sym, l := range lengths {
		if l > 0 {
			d.symOrder[next[l]] = uint32(sym)
			next[l]++
		}
	}
	// Canonical codes of one length are consecutive, so each code of
	// length l <= tableBits owns the 2^(tableBits-l) entries it prefixes.
	tb := min(d.maxLen, maxTableBits)
	clear(d.table[:1<<tb])
	for l := uint(1); l <= tb; l++ {
		for k := uint32(0); k < d.count[l]; k++ {
			lo := (d.firstCode[l] + k) << (tb - l)
			entry := d.symOrder[d.offset[l]+k]<<lenShift | uint32(l)
			for v := lo; v < lo+1<<(tb-l); v++ {
				d.table[v] = entry
			}
		}
	}
	d.r = r
	d.tableBits = tb
	return nil
}

// ReadSymbol decodes and returns the next symbol.
//
// It takes a byte from the bit reader's source only when the next code
// needs more bits than the reader holds, and accepts a table entry looked
// up on zero-padded bits only when its code length is at most the number
// of real bits held. So it never reads past the byte holding the code's
// last bit: a caller that frames other data after the code stream on the
// same byte source finds it where the stream's padding ends.
func (d *Decoder) ReadSymbol() (int, error) {
	r := d.r
	if d.maxLen == 0 {
		return 0, errBadLengths
	}
	for {
		e := d.table[r.Peek(d.tableBits)]
		if l := uint(e) & (1<<lenShift - 1); l != 0 && l <= r.Buffered() {
			r.Skip(l)
			return int(e >> lenShift), nil
		}
		if r.Buffered() >= d.tableBits {
			break
		}
		// No code of at most Buffered() bits matches: the code needs more.
		if err := r.Fill(); err != nil {
			return 0, err
		}
	}
	for l := d.tableBits + 1; l <= d.maxLen; l++ {
		if r.Buffered() < l {
			if err := r.Fill(); err != nil {
				return 0, err
			}
		}
		if idx := r.Peek(l) - uint64(d.firstCode[l]); idx < uint64(d.count[l]) {
			r.Skip(l)
			return int(d.symOrder[d.offset[l]+uint32(idx)]), nil
		}
	}
	return 0, errBadLengths
}
