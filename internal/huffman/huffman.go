// Package huffman implements length-limited canonical Huffman coding.
//
// It is used by the bsc block compressor as the entropy-coding stage. Code
// lengths are computed with a standard Huffman construction and then, if
// necessary, rebalanced to respect a maximum code length while keeping the
// Kraft inequality satisfied (the same strategy used by zlib). Codes are
// canonical: within a length, codes are assigned in increasing symbol order,
// so a decoder needs only the length table. The Decoder builds a 1024-entry
// lookup table from it and decodes a code of up to 10 bits with one lookup,
// longer ones by a short canonical walk; it takes input bytes only as codes
// need them, so framing that follows the code stream stays in place.
package huffman

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"atc/internal/bitio"
)

// MaxBits is the default maximum code length supported by this package.
const MaxBits = 20

var (
	errNoSymbols  = errors.New("huffman: no symbols with nonzero frequency")
	errBadLengths = errors.New("huffman: invalid code length table")
)

// BuildLengths computes a length-limited Huffman code-length table from
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If exactly one symbol has nonzero frequency it is assigned length 1.
// maxBits must be in [1, 57], and at least log2 of the number of symbols
// with nonzero frequency; lengths never exceed it.
func BuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > maxCodeLen {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	lengths := make([]uint8, n)
	type node struct {
		freq        int64
		sym         int // >= 0 for leaf, -1 for internal
		left, right int // indexes into nodes
	}
	var live []int // heap of node indexes
	nodes := make([]node, 0, 2*n)
	for sym, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{freq: f, sym: sym, left: -1, right: -1})
			live = append(live, len(nodes)-1)
		}
	}
	switch len(live) {
	case 0:
		return nil, errNoSymbols
	case 1:
		lengths[nodes[live[0]].sym] = 1
		return lengths, nil
	}
	if len(live) > 1<<maxBits {
		return nil, fmt.Errorf("huffman: %d symbols do not fit in %d-bit codes", len(live), maxBits)
	}
	// Simple heap ordered by frequency (ties by node index for determinism).
	less := func(a, b int) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return a < b
	}
	down := func(h []int, i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		down(live, i)
	}
	pop := func() int {
		top := live[0]
		live[0] = live[len(live)-1]
		live = live[:len(live)-1]
		down(live, 0)
		return top
	}
	push := func(idx int) {
		live = append(live, idx)
		i := len(live) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(live[i], live[p]) {
				break
			}
			live[i], live[p] = live[p], live[i]
			i = p
		}
	}
	for len(live) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, sym: -1, left: a, right: b})
		push(len(nodes) - 1)
	}
	// Depth-first walk assigning depths.
	root := live[0]
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	maxSeen := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.idx]
		if nd.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1 // cannot happen for >=2 symbols, defensive
			}
			lengths[nd.sym] = uint8(d)
			if d > maxSeen {
				maxSeen = d
			}
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	if maxSeen > maxBits {
		limitLengths(freqs, lengths, maxBits)
	}
	return lengths, nil
}

// limitLengths rebalances an over-deep code to respect maxBits. It clamps
// all lengths to maxBits, then restores the Kraft inequality by deepening
// the shallowest available codes, and finally reassigns lengths to symbols
// in frequency order so frequent symbols keep the short codes.
func limitLengths(freqs []int64, lengths []uint8, maxBits int) {
	blCount := make([]int, maxBits+1)
	var syms []int
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			l = uint8(maxBits)
		}
		blCount[l]++
		syms = append(syms, sym)
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
	sort.Slice(syms, func(i, j int) bool {
		if freqs[syms[i]] != freqs[syms[j]] {
			return freqs[syms[i]] > freqs[syms[j]]
		}
		return syms[i] < syms[j]
	})
	idx := 0
	for l := 1; l <= maxBits; l++ {
		for k := 0; k < blCount[l]; k++ {
			lengths[syms[idx]] = uint8(l)
			idx++
		}
	}
}

// Codebook holds canonical codes derived from a length table.
type Codebook struct {
	Lengths []uint8
	Codes   []uint32
	maxLen  int
}

// NewCodebook builds canonical codes from a length table. It validates that
// the lengths satisfy the Kraft inequality with equality allowed (over-full
// tables are rejected; under-full tables are permitted, as produced by the
// single-symbol case).
func NewCodebook(lengths []uint8) (*Codebook, error) {
	maxLen := 0
	for _, l := range lengths {
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	if maxLen == 0 || maxLen > maxCodeLen {
		return nil, errBadLengths
	}
	blCount := make([]int, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	var kraft int64
	for l := 1; l <= maxLen; l++ {
		kraft += int64(blCount[l]) << uint(maxLen-l)
	}
	if kraft > int64(1)<<uint(maxLen) {
		return nil, errBadLengths
	}
	nextCode := make([]uint32, maxLen+2)
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(blCount[l-1])) << 1
		nextCode[l] = code
	}
	codes := make([]uint32, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = nextCode[l]
		nextCode[l]++
	}
	return &Codebook{Lengths: append([]uint8(nil), lengths...), Codes: codes, maxLen: maxLen}, nil
}

// MaxLen reports the longest code length in the book.
func (cb *Codebook) MaxLen() int { return cb.maxLen }

// Encoder writes symbols as canonical Huffman codes to a bit stream.
type Encoder struct {
	cb *Codebook
	w  *bitio.Writer
}

// NewEncoder returns an Encoder using codebook cb on bit writer w.
func NewEncoder(cb *Codebook, w *bitio.Writer) *Encoder {
	return &Encoder{cb: cb, w: w}
}

// WriteSymbol emits the code for sym.
func (e *Encoder) WriteSymbol(sym int) error {
	l := e.cb.Lengths[sym]
	if l == 0 {
		return fmt.Errorf("huffman: symbol %d has no code", sym)
	}
	return e.w.WriteBits(uint64(e.cb.Codes[sym]), uint(l))
}

// Decoder reads canonical Huffman codes from a bit stream.
//
// It decodes by table lookup (Moffat & Turpin, "On the implementation of
// minimum redundancy prefix codes", 1997; zlib's inflate works the same
// way): the next tableBits bits index a table whose entry gives the
// symbol and code length of every code no longer than tableBits, so a
// short code costs one lookup once its bits are held. Codes longer than the table — rare, since
// they belong to the rarest symbols — continue with the canonical
// first-code/count walk over the same bits, one length at a time.
type Decoder struct {
	r *bitio.Reader
	// table[v] is sym<<lenShift | len for the code that prefixes the
	// tableBits-bit value v, or 0 when v starts a longer code or none.
	table     [1 << maxTableBits]uint32
	tableBits uint
	// Canonical decode tables indexed by code length.
	firstCode [maxCodeLen + 1]uint64 // first canonical code of each length
	count     [maxCodeLen + 1]uint32 // number of codes of each length
	offset    [maxCodeLen + 1]uint32 // index into symOrder of first symbol of each length
	symOrder  []uint32               // symbols sorted by (length, symbol)
	maxLen    uint
}

const (
	// maxCodeLen is the longest code a Codebook or Decoder accepts. The
	// decoder fills a byte only while it holds fewer bits than the code
	// needs, at most maxCodeLen-1 = 56, so the byte fits its 64-bit buffer.
	maxCodeLen   = 57
	maxTableBits = 10
	lenShift     = 5 // table entries keep the code length in the low 5 bits
)

// NewDecoder builds a Decoder for the given length table reading from r.
func NewDecoder(lengths []uint8, r *bitio.Reader) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(lengths, r); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initialises d for a new length table and bit reader, rebuilding
// its lookup table in place — equivalent to NewDecoder but, once the
// decoder has seen a table with as many symbols, allocation-free. Like
// NewCodebook it rejects over-full tables (the Kraft check, without
// materialising codes); on error d is left unusable until a successful
// Reset.
func (d *Decoder) Reset(lengths []uint8, r *bitio.Reader) error {
	d.maxLen = 0
	maxLen := uint(0)
	for _, l := range lengths {
		maxLen = max(maxLen, uint(l))
	}
	if maxLen == 0 || maxLen > maxCodeLen || len(lengths) > 1<<(32-lenShift) {
		return errBadLengths
	}
	clear(d.count[:])
	for _, l := range lengths {
		d.count[l]++
	}
	d.count[0] = 0
	// Kraft check: left counts the codes of length l still unassigned.
	left := int64(1)
	for l := uint(1); l <= maxLen; l++ {
		if left = left<<1 - int64(d.count[l]); left < 0 {
			return errBadLengths
		}
	}
	var next [maxCodeLen + 1]uint32 // per-length fill cursor into symOrder
	code, total := uint64(0), uint32(0)
	for l := uint(1); l <= maxLen; l++ {
		code = (code + uint64(d.count[l-1])) << 1
		d.firstCode[l] = code
		d.offset[l] = total
		next[l] = total
		total += d.count[l]
	}
	d.symOrder = slices.Grow(d.symOrder[:0], int(total))[:total]
	for sym, l := range lengths {
		if l > 0 {
			d.symOrder[next[l]] = uint32(sym)
			next[l]++
		}
	}
	// Canonical codes of one length are consecutive, so each code of
	// length l <= tableBits owns the 2^(tableBits-l) entries it prefixes.
	tb := min(maxLen, maxTableBits)
	clear(d.table[:1<<tb])
	for l := uint(1); l <= tb; l++ {
		for k := uint32(0); k < d.count[l]; k++ {
			sym := d.symOrder[d.offset[l]+k]
			lo := uint32(d.firstCode[l]+uint64(k)) << (tb - l)
			entry := sym<<lenShift | uint32(l)
			for v := lo; v < lo+1<<(tb-l); v++ {
				d.table[v] = entry
			}
		}
	}
	d.r = r
	d.tableBits = tb
	d.maxLen = maxLen
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
		if idx := r.Peek(l) - d.firstCode[l]; idx < uint64(d.count[l]) {
			r.Skip(l)
			return int(d.symOrder[d.offset[l]+uint32(idx)]), nil
		}
	}
	return 0, errBadLengths
}
