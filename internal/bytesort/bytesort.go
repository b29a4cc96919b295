// Package bytesort implements the reversible trace transformation of
// Section 4 of the paper (Michaud, ISPASS 2009): byte-unshuffling with
// progressive stable sorting.
//
// A buffer of B 64-bit addresses is emitted as eight blocks of B bytes.
// Block 0 holds the most-significant byte of every address in sequence
// order. Before each subsequent block j is emitted, the addresses are
// stably sorted (counting sort) by the byte just emitted, so addresses
// sharing a prefix of high-order bytes are grouped together and block j
// exposes the per-region regularity that a byte-level compressor (bzip2 in
// the paper, bsc here) can exploit. Because the sort is stable, the
// transformation is reversible from the blocks alone: the histogram of
// block j-1 determines the permutation applied before block j.
//
// The package also implements plain byte-unshuffling (no sorting), the
// "us" baseline of the paper's Table 1.
//
// Stream framing: each flushed buffer becomes one segment,
//
//	u32 little-endian address count n  (0 terminates the stream)
//	8 × n bytes (blocks in order, most-significant byte first)
//
// Time and space are O(B) per segment, matching the paper's Figure 2 code.
package bytesort

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Mode selects the transformation variant.
type Mode int

const (
	// Sorted is the full bytesort transformation (unshuffle + stable sorts).
	Sorted Mode = iota
	// Unshuffle emits byte columns in sequence order without sorting.
	Unshuffle
)

// DefaultBufferAddrs mirrors the paper's "small bytesort" buffer
// (1 million addresses).
const DefaultBufferAddrs = 1 << 20

// ErrCorrupt reports malformed segment framing.
var ErrCorrupt = errors.New("bytesort: corrupt stream")

// maxSegmentAddrs bounds the per-segment address count a decoder accepts
// (1 GiB of block data). The count comes straight off the wire and sizes
// buffers, so an unchecked 32-bit value could demand a 34 GB allocation
// from a 4-byte header. Encoders buffer DefaultBufferAddrs (1 Mi) by
// default; the decoder allows 128x that for custom buffer sizes.
const maxSegmentAddrs = 1 << 27

// Encoder applies the transformation to a stream of addresses and writes
// framed segments to an underlying writer (typically a compression back
// end). Reset re-targets it at a new stream while keeping its buffers.
type Encoder struct {
	w       io.Writer
	mode    Mode
	size    int      // addresses per segment
	buf     []uint64 // the segment being filled; at least size entries of capacity
	scratch []uint64
	block   []byte
	hdr     [4]byte
	hist    [256]int32
	jb      [256]int32
	err     error
	closed  bool
}

// NewEncoder returns a bytesort Encoder with buffer capacity bufAddrs
// addresses (values < 1 are replaced with DefaultBufferAddrs).
func NewEncoder(w io.Writer, bufAddrs int) *Encoder {
	return NewEncoderMode(w, bufAddrs, Sorted)
}

// NewEncoderMode returns an Encoder for the given variant.
func NewEncoderMode(w io.Writer, bufAddrs int, mode Mode) *Encoder {
	e := &Encoder{mode: mode}
	e.Reset(w, bufAddrs)
	return e
}

// Reset discards all stream state — buffered addresses and error — and
// restarts the Encoder on w in the same mode with a buffer of bufAddrs
// addresses (values < 1 are replaced with DefaultBufferAddrs). Its
// buffers are kept and grow only for a larger bufAddrs, so an Encoder
// reset onto chunk after chunk allocates nothing once it has seen the
// largest. After Reset the Encoder behaves exactly like
// NewEncoderMode(w, bufAddrs, mode).
func (e *Encoder) Reset(w io.Writer, bufAddrs int) {
	if bufAddrs < 1 {
		bufAddrs = DefaultBufferAddrs
	}
	if cap(e.buf) < bufAddrs {
		e.buf = make([]uint64, 0, bufAddrs)
		e.scratch = make([]uint64, bufAddrs)
		e.block = make([]byte, bufAddrs)
	}
	e.w = w
	e.size = bufAddrs
	e.buf = e.buf[:0]
	e.err = nil
	e.closed = false
}

// Write adds one address; a full buffer is flushed automatically.
func (e *Encoder) Write(addr uint64) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return errors.New("bytesort: write after close")
	}
	e.buf = append(e.buf, addr)
	if len(e.buf) == e.size {
		return e.flush()
	}
	return nil
}

// WriteSlice adds many addresses, copying in bulk up to each buffer
// boundary instead of going through per-address Write calls.
func (e *Encoder) WriteSlice(addrs []uint64) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return errors.New("bytesort: write after close")
	}
	for len(addrs) > 0 {
		n := min(e.size-len(e.buf), len(addrs))
		e.buf = append(e.buf, addrs[:n]...)
		addrs = addrs[n:]
		if len(e.buf) == e.size {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush emits any buffered addresses as a (possibly short) segment.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.flush()
}

// Close flushes buffered addresses and writes the zero-count terminator.
// It does not close the underlying writer.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	if err := e.flush(); err != nil {
		return err
	}
	e.hdr = [4]byte{}
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		e.err = err
		return err
	}
	e.closed = true
	return nil
}

func (e *Encoder) flush() error {
	n := len(e.buf)
	if n == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(e.hdr[:], uint32(n))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		e.err = err
		return err
	}
	a := e.buf
	b := e.scratch[:n]
	for j := 0; j < 8; j++ {
		// A block of one byte value, as the high bytes of a trace often
		// are, sorts to the order it is in: the shift alone does the sort.
		if j > 0 && e.mode == Sorted && e.hist[a[0]>>56] != int32(n) {
			// Stable counting sort of a by its current top byte (which is
			// the byte emitted in the previous round), shifting left so the
			// next original byte becomes the top byte. Mirrors sort_bytes()
			// in the paper's Figure 2.
			e.jb[0] = 0
			for c := 1; c < 256; c++ {
				e.jb[c] = e.jb[c-1] + e.hist[c-1]
			}
			for _, v := range a {
				c := v >> 56
				b[e.jb[c]] = v << 8
				e.jb[c]++
			}
			a, b = b, a[:n]
		} else if j > 0 {
			for i := range a {
				a[i] <<= 8
			}
		}
		// Unshuffle: emit the top byte of each address in current order and
		// compute its histogram for the next round's sort. Mirrors
		// unshuffle_bytes() in the paper's Figure 2.
		for c := range e.hist {
			e.hist[c] = 0
		}
		blk := e.block[:n]
		for i, v := range a {
			c := byte(v >> 56)
			blk[i] = c
			e.hist[c]++
		}
		if _, err := e.w.Write(blk); err != nil {
			e.err = err
			return err
		}
	}
	e.buf = e.buf[:0]
	return nil
}

// Decoder reverses the transformation, reading framed segments. The
// per-segment working buffers (block bytes, decoded addresses, inverse
// permutations) are reused across segments, so a long stream decodes
// with a constant working set instead of fresh allocations per segment.
type Decoder struct {
	r       io.Reader
	mode    Mode
	pending []uint64
	pos     int
	done    bool
	err     error
	// left counts the addresses the rest of the stream may hold, set by
	// Limit; negative means no limit.
	left int64

	blocks  []byte  // reused 8×n block buffer
	posBuf  []int32 // reused inverse-sort scratch
	permBuf []int32
}

// NewDecoder returns a Decoder for Sorted streams.
func NewDecoder(r io.Reader) *Decoder {
	return NewDecoderMode(r, Sorted)
}

// NewDecoderMode returns a Decoder for the given variant; the mode must
// match the Encoder that produced the stream.
func NewDecoderMode(r io.Reader, mode Mode) *Decoder {
	return &Decoder{r: r, mode: mode, left: -1}
}

// Limit caps the addresses the rest of the stream may hold at n: a
// segment header claiming more than are left is ErrCorrupt, before any
// buffer is sized from it. A caller that knows the stream's length (a
// chunk index) bounds decode memory by it instead of by maxSegmentAddrs.
// Reset lifts the limit.
func (d *Decoder) Limit(n int64) {
	d.left = n
}

// Reset re-targets the Decoder at a new stream in the same mode,
// retaining the per-segment working buffers — pooled decode pipelines
// reuse one Decoder across chunks so steady-state decoding allocates no
// inverse-sort scratch.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.pending = d.pending[:0]
	d.pos = 0
	d.done = false
	d.err = nil
	d.left = -1
}

// ReadSlice fills dst with decoded addresses, copying in bulk from each
// inverted segment. It returns the number of addresses written and
// io.EOF only when the stream ended before dst was full (n may then
// still be positive); a full dst returns a nil error. A caller looping
// on ReadSlice with a reused buffer decodes the stream with no
// per-address call overhead and no per-batch allocation.
//
//atc:hotpath
func (d *Decoder) ReadSlice(dst []uint64) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(dst) {
		if d.pos >= len(d.pending) {
			if d.done {
				d.err = io.EOF
				return n, io.EOF
			}
			if err := d.readSegment(); err != nil {
				d.err = err
				return n, err
			}
			continue
		}
		c := copy(dst[n:], d.pending[d.pos:])
		d.pos += c
		n += c
	}
	return n, nil
}

// ReadAll decodes every remaining address.
func (d *Decoder) ReadAll() ([]uint64, error) {
	var out []uint64
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, max(len(out), 1<<10))
		}
		n, err := d.ReadSlice(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func (d *Decoder) readSegment() error {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			// Clean end without explicit terminator: accept.
			d.done = true
			return nil
		}
		return fmt.Errorf("%w: short segment header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 {
		d.done = true
		return nil
	}
	if n > maxSegmentAddrs {
		return fmt.Errorf("%w: segment of %d addresses exceeds limit %d", ErrCorrupt, n, maxSegmentAddrs)
	}
	if d.left >= 0 {
		if int64(n) > d.left {
			return fmt.Errorf("%w: segment of %d addresses, %d left in the stream", ErrCorrupt, n, d.left)
		}
		d.left -= int64(n)
	}
	if cap(d.blocks) < 8*n {
		d.blocks = make([]byte, 8*n)
	}
	blocks := d.blocks[:8*n]
	if _, err := io.ReadFull(d.r, blocks); err != nil {
		return fmt.Errorf("%w: short segment body (%d addresses)", ErrCorrupt, n)
	}
	if cap(d.pending) < n {
		d.pending = make([]uint64, n)
	}
	if d.mode == Sorted && cap(d.posBuf) < n {
		d.posBuf = make([]int32, n)
		d.permBuf = make([]int32, n)
	}
	addrs := d.pending[:n]
	inverseSegmentInto(addrs, blocks, n, d.mode, d.posBuf[:cap(d.posBuf)], d.permBuf[:cap(d.permBuf)])
	d.pending = addrs
	d.pos = 0
	return nil
}

// inverseSegment reconstructs n addresses from their eight byte blocks.
func inverseSegment(blocks []byte, n int, mode Mode) ([]uint64, error) {
	addrs := make([]uint64, n)
	var pos, perm []int32
	if mode == Sorted {
		pos = make([]int32, n)
		perm = make([]int32, n)
	}
	inverseSegmentInto(addrs, blocks, n, mode, pos, perm)
	return addrs, nil
}

// inverseSegmentInto reconstructs n addresses into addrs (len n; every
// entry is overwritten, so a reused buffer is fine). pos and perm are
// scratch of at least n entries for Sorted mode (unused for Unshuffle).
func inverseSegmentInto(addrs []uint64, blocks []byte, n int, mode Mode, pos, perm []int32) {
	// Column 0 is in sequence order in both modes.
	for e, c := range blocks[:n] {
		addrs[e] = uint64(c)
	}
	if mode == Unshuffle {
		for j := 1; j < 8; j++ {
			for e, c := range blocks[j*n : (j+1)*n] {
				addrs[e] = addrs[e]<<8 | uint64(c)
			}
		}
		return
	}
	// pos[e]: index of sequence element e within the current block order.
	pos = pos[:n]
	perm = perm[:n]
	for i := range pos {
		pos[i] = int32(i)
	}
	var start [256]int32
	for j := 1; j < 8; j++ {
		// The order of block j is the stable counting sort of block j-1's
		// order by block j-1's values: rebuild that permutation from the
		// previous block's histogram, then gather block j through it.
		prev, blk := blocks[(j-1)*n:j*n], blocks[j*n:(j+1)*n]
		var hist [256]int32
		for _, c := range prev {
			hist[c]++
		}
		start[0] = 0
		for c := 1; c < 256; c++ {
			start[c] = start[c-1] + hist[c-1]
		}
		for i, c := range prev {
			perm[i] = start[c]
			start[c]++
		}
		for e := range pos {
			p := perm[pos[e]]
			pos[e] = p
			addrs[e] = addrs[e]<<8 | uint64(blk[p])
		}
	}
}

// TransformBuffer applies one in-memory transformation pass and returns the
// concatenated eight blocks; exported for tests and analysis tools.
func TransformBuffer(addrs []uint64, mode Mode) []byte {
	var sink sliceWriter
	e := NewEncoderMode(&sink, len(addrs), mode)
	_ = e.WriteSlice(addrs)
	_ = e.Flush()
	if len(sink.b) < 4 {
		return nil
	}
	return sink.b[4:] // strip the count header
}

// InverseBuffer reverses TransformBuffer.
func InverseBuffer(blocks []byte, mode Mode) ([]uint64, error) {
	if len(blocks)%8 != 0 {
		return nil, fmt.Errorf("%w: block length %d not a multiple of 8", ErrCorrupt, len(blocks))
	}
	n := len(blocks) / 8
	if n == 0 {
		return nil, nil
	}
	return inverseSegment(blocks, n, mode)
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}
