// Package bitio provides bit-granular reading and writing on top of
// byte-oriented io.Reader and io.Writer streams.
//
// Bits are packed most-significant-bit first within each byte, which is the
// conventional layout for canonical Huffman codes: the first bit written
// occupies the top bit of the first byte. Writers must be flushed (via Close
// or Flush) to emit a final partial byte, which is zero-padded.
package bitio

import (
	"bufio"
	"errors"
	"io"
)

// ErrTooManyBits is returned when a single read or write requests more than
// 64 bits.
var ErrTooManyBits = errors.New("bitio: bit count out of range [0,64]")

// Writer writes bits to an underlying io.Writer, buffering them into bytes.
// The zero value is not usable; use NewWriter.
type Writer struct {
	w     *bufio.Writer
	acc   uint64 // bit accumulator: its low nacc bits are pending output
	nacc  uint   // number of valid bits in acc (always < 8 after a write)
	count int64  // total bits written
	err   error
}

// NewWriter returns a Writer emitting bits to w.
func NewWriter(w io.Writer) *Writer {
	// A buffer of its own: bufio.NewWriter(w) returns w itself when w is a
	// large enough *bufio.Writer, and Reset would then retarget the caller's.
	bw := bufio.NewWriter(nil)
	bw.Reset(w)
	return &Writer{w: bw}
}

// Reset discards any pending bits, the bit count and the error, and
// retargets w at dst, keeping its buffer: after Reset, w behaves exactly
// like NewWriter(dst). Flush first to keep what was written.
func (w *Writer) Reset(dst io.Writer) {
	w.w.Reset(dst)
	w.acc, w.nacc, w.count, w.err = 0, 0, 0, nil
}

// WriteBits writes the low n bits of v, most significant first.
// n must be in [0,64].
func (w *Writer) WriteBits(v uint64, n uint) error {
	if w.err != nil {
		return w.err
	}
	if n > 64 {
		w.err = ErrTooManyBits
		return w.err
	}
	w.count += int64(n)
	if n > 56 {
		// acc holds fewer than 8 bits, so 56 more always fit: the high
		// bits go first.
		if err := w.put(v>>32&(1<<(n-32)-1), n-32); err != nil {
			return err
		}
		n = 32
	}
	return w.put(v&(1<<n-1), n)
}

// put appends the n ≤ 56 bits of v, which has no bit above them set, to
// the accumulator and emits every byte they complete.
func (w *Writer) put(v uint64, n uint) error {
	w.acc = w.acc<<n | v
	w.nacc += n
	for w.nacc >= 8 {
		w.nacc -= 8
		if err := w.w.WriteByte(byte(w.acc >> w.nacc)); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// WriteBit writes a single bit (any nonzero b is treated as 1).
func (w *Writer) WriteBit(b uint) error {
	if b != 0 {
		b = 1
	}
	return w.WriteBits(uint64(b), 1)
}

// BitsWritten reports the total number of bits written so far,
// excluding any zero padding added by Flush or Close.
func (w *Writer) BitsWritten() int64 { return w.count }

// Flush pads the current byte with zero bits and flushes the underlying
// buffered writer. Writing may continue after a Flush; subsequent bits
// start on a byte boundary.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.nacc > 0 {
		pad := 8 - w.nacc
		w.acc <<= pad
		if err := w.w.WriteByte(byte(w.acc)); err != nil {
			w.err = err
			return err
		}
		w.acc, w.nacc = 0, 0
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes pending bits. It does not close the underlying writer.
func (w *Writer) Close() error { return w.Flush() }

// Reader reads bits from an underlying io.Reader.
// The zero value is not usable; use NewReader.
//
// A Reader holds up to 64 bits taken from its source but not yet consumed.
// It takes a byte from the source only when ReadBits needs more bits than
// it holds, or when its caller asks with Fill, so it holds no byte past the
// one with the last bit consumed unless its caller filled one.
type Reader struct {
	r     io.ByteReader
	acc   uint64 // bit buffer, left-aligned: the top nacc bits are held, the rest zero
	nacc  uint
	count int64
	err   error
}

// NewReader returns a Reader consuming bits from r. If r already implements
// io.ByteReader it is used directly — no read-ahead happens beyond single
// bytes, so a Reader can share an underlying stream with other framing
// logic. Otherwise r is wrapped in a bufio.Reader (which does read ahead).
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{r: br}
}

// Reset re-points the Reader at a new byte source, discarding any
// buffered bits, error state and counters. It gives reusers of a Reader
// value the same behaviour as a fresh NewReader(src).
func (r *Reader) Reset(src io.Reader) {
	br, ok := src.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(src)
	}
	*r = Reader{r: br}
}

// ReadBits reads n bits (MSB first) and returns them in the low n bits of
// the result. n must be in [0,64]. At end of stream it returns io.EOF if no
// bits were consumed, io.ErrUnexpectedEOF otherwise.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if n > 64 {
		return 0, ErrTooManyBits
	}
	var v uint64
	got := uint(0)
	for got < n {
		if r.nacc == 0 {
			if err := r.Fill(); err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF
					r.err = err
				}
				return 0, err
			}
		}
		take := min(n-got, r.nacc)
		v = v<<take | r.Peek(take)
		r.acc <<= take
		r.nacc -= take
		got += take
	}
	r.count += int64(n)
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Buffered reports how many bits the Reader holds: taken from the source
// but not yet consumed.
func (r *Reader) Buffered() uint { return r.nacc }

// Fill takes one byte from the source into the bit buffer, which must
// hold at most 56 bits (ErrTooManyBits otherwise). At end of stream it
// returns io.EOF; like any read error it is sticky.
func (r *Reader) Fill() error {
	if r.err != nil {
		return r.err
	}
	if r.nacc > 56 {
		return ErrTooManyBits
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.err = err
		return err
	}
	r.acc |= uint64(b) << (56 - r.nacc)
	r.nacc += 8
	return nil
}

// Peek returns the next n bits (n in [0,64]) without consuming them. Bits
// past those buffered read as zero; Peek never reads from the source.
func (r *Reader) Peek(n uint) uint64 {
	return r.acc >> (64 - n)
}

// Skip consumes n buffered bits; n must be at most Buffered().
func (r *Reader) Skip(n uint) {
	r.acc <<= n
	r.nacc -= n
	r.count += int64(n)
}

// BitsRead reports the total number of bits successfully read.
func (r *Reader) BitsRead() int64 { return r.count }

// AlignByte discards bits up to the next byte boundary.
func (r *Reader) AlignByte() {
	r.acc <<= r.nacc % 8
	r.nacc -= r.nacc % 8
}
