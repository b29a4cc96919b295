// Package bsc implements a block-sorting compressor in the style of bzip2:
// each block of input is Burrows–Wheeler transformed, move-to-front and
// zero-run coded, then entropy coded with a canonical Huffman code. It is
// the byte-level back end this reproduction uses where the paper uses bzip2
// (the Go standard library ships only a bzip2 reader, no writer).
//
// The stream format is self-framing:
//
//	magic "BSC1" (4 bytes)
//	repeated blocks:
//	    u8   1 (block marker)
//	    u32  original length (little endian)
//	    u32  IEEE CRC-32 of the original bytes
//	    u32  BWT primary index
//	    258 × 5-bit Huffman code lengths (bit packed; 0 for an unused
//	        symbol, otherwise at most 20: a larger length is corrupt)
//	    Huffman-coded RUNA/RUNB/MTF symbols, terminated by EOB
//	    (zero padding to the next byte boundary)
//	u8 0 (end-of-stream marker)
//
// Writer implements io.WriteCloser, Reader implements io.Reader, so the
// package composes with any byte stream.
//
// The Writer keeps every block's working storage (block buffer, suffix
// array, BWT output, symbols, Huffman tables) and Reset starts it on a
// new stream, so a steady stream of blocks compresses without
// allocating. Its MTF pass counts the symbol frequencies the Huffman code
// is built from.
//
// The Reader decodes each block in one pass per stage. Every Huffman
// symbol goes straight into the inverse MTF (mtf.Decoder), with no symbol
// array in between, and that pass also counts the bytes it emits. The
// inverse BWT starts from those counts and walks one packed table whose
// entries hold a row index in 24 bits above a byte, so a block holds at
// most MaxBlockSize = 1<<24 - 1 bytes.
package bsc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"atc/internal/bitio"
	"atc/internal/bwt"
	"atc/internal/huffman"
	"atc/internal/mtf"
)

const (
	magic = "BSC1"
	// DefaultBlockSize matches bzip2 -9 (900 KB blocks).
	DefaultBlockSize = 900 * 1000
	// MaxBlockSize bounds memory use for hostile streams. It is the
	// longest block the inverse BWT's 24-bit rows reach, 1<<24 - 1.
	MaxBlockSize = bwt.MaxInverseLen

	lenBits = 5 // bits per Huffman code length in the header (max huffman.MaxBits)
)

var (
	// ErrCorrupt reports a malformed or truncated stream.
	ErrCorrupt = errors.New("bsc: corrupt stream")
	// ErrChecksum reports a CRC mismatch on a decompressed block.
	ErrChecksum = errors.New("bsc: checksum mismatch")
)

// Writer compresses data written to it and emits the compressed stream to
// the underlying writer. Close must be called to flush the final block and
// the end-of-stream marker.
//
// A Writer owns all of its block-encode working state: the block buffer,
// the suffix-array scratch and output of the BWT, the MTF symbols and
// their frequencies, the Huffman lengths and code table, and the bit
// writer. Reset re-targets it at a new stream while keeping that state,
// so one Writer compresses any number of streams with amortised-zero
// allocation; the encoder's per-worker units rely on this.
type Writer struct {
	w         io.Writer
	buf       []byte // the block being filled, grown up to blockSize
	blockSize int
	wroteHdr  bool
	closed    bool
	err       error

	// Reusable per-block encode state.
	sa      []int32  // bwt.TransformInto suffix-array scratch
	last    []byte   // BWT output, the last column
	syms    []uint16 // mtf.EncodeInto symbols
	freqs   [mtf.NumSyms]int64
	lengths [mtf.NumSyms]uint8
	hdr     [13]byte // framing scratch: block header, end-of-stream marker
	bit     *bitio.Writer
	enc     huffman.Encoder
}

// NewWriter returns a Writer with the default block size.
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, DefaultBlockSize)
}

// NewWriterSize returns a Writer with the given block size in bytes.
// Sizes outside [1, MaxBlockSize] are clamped.
func NewWriterSize(w io.Writer, blockSize int) *Writer {
	if blockSize < 1 {
		blockSize = 1
	}
	if blockSize > MaxBlockSize {
		blockSize = MaxBlockSize
	}
	return &Writer{w: w, blockSize: blockSize, bit: bitio.NewWriter(nil)}
}

// Reset discards all stream state — buffered data, position and error —
// and restarts the Writer on dst with the same block size, retaining the
// encode working buffers. After Reset the Writer behaves exactly like
// NewWriterSize(dst, blockSize).
func (w *Writer) Reset(dst io.Writer) {
	w.w = dst
	w.buf = w.buf[:0]
	w.wroteHdr = false
	w.closed = false
	w.err = nil
}

// Write buffers p, compressing complete blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("bsc: write after close")
	}
	total := 0
	for len(p) > 0 {
		n := min(len(p), w.blockSize-len(w.buf))
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		if len(w.buf) == w.blockSize {
			if err := w.flushBlock(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (w *Writer) writeHeader() error {
	if w.wroteHdr {
		return nil
	}
	if _, err := io.WriteString(w.w, magic); err != nil {
		w.err = err
		return err
	}
	w.wroteHdr = true
	return nil
}

func (w *Writer) flushBlock() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.compressBlock(w.buf); err != nil {
		w.err = err
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Close flushes any buffered data and writes the end-of-stream marker.
// It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.hdr[0] = 0
	if _, err := w.w.Write(w.hdr[:1]); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	return nil
}

// compressBlock writes one framed compressed block. The MTF pass counts
// the symbol frequencies the Huffman code is built from.
func (w *Writer) compressBlock(block []byte) error {
	var primary int
	w.last, w.sa, primary = bwt.TransformInto(w.last, w.sa, block)
	w.syms = mtf.EncodeInto(w.syms, w.last, &w.freqs)
	if err := huffman.BuildLengthsInto(w.lengths[:], w.freqs[:], huffman.MaxBits); err != nil {
		return fmt.Errorf("bsc: %w", err)
	}
	if err := w.enc.Reset(w.lengths[:], w.bit); err != nil {
		return fmt.Errorf("bsc: %w", err)
	}

	hdr := w.hdr[:]
	hdr[0] = 1
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(block)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(block))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(primary))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	w.bit.Reset(w.w)
	for _, l := range w.lengths {
		if err := w.bit.WriteBits(uint64(l), lenBits); err != nil {
			return err
		}
	}
	for _, s := range w.syms {
		if err := w.enc.WriteSymbol(int(s)); err != nil {
			return err
		}
	}
	return w.bit.Close()
}

// Reader decompresses a bsc stream.
//
// All consumption of the underlying stream — framing headers and the bit
// stream alike — goes through a single buffered reader. The bit reader
// takes a byte from it only when the next Huffman code needs more bits
// than it holds, so after EOB it has taken exactly the bytes up to the
// block's padding, and block boundaries stay in sync.
//
// A Reader owns all of its block-decode working state (Huffman tables,
// MTF decoder and output, BWT table, the block buffer itself) and
// Reset re-targets it at a new stream while keeping that state, so one
// Reader can decompress any number of streams with amortised-zero
// allocation — this is what the decode pipeline's per-Decompressor
// reader pool relies on.
type Reader struct {
	br      *bufio.Reader
	pending []byte // decompressed bytes not yet delivered; aliases block
	done    bool
	started bool
	err     error

	// Reusable per-block decode state. pending aliases block, and
	// nextBlock only runs once pending is fully drained, so overwriting
	// these between blocks never clobbers undelivered bytes.
	bit     bitio.Reader
	dec     huffman.Decoder
	hdr     [12]byte // framing scratch: magic, block markers, block headers
	lengths [mtf.NumSyms]uint8
	unmtf   mtf.Decoder // its output is the BWT last column
	block   []byte      // reconstructed block (bwt.InverseCountedInto dst)
	tt      []int32     // bwt.InverseCountedInto table scratch
}

// NewReader returns a Reader decompressing from r.
func NewReader(r io.Reader) *Reader {
	// A buffer of its own: bufio.NewReader(r) returns r itself when r is a
	// large enough *bufio.Reader, and Reset would then retarget the caller's.
	br := bufio.NewReader(nil)
	br.Reset(r)
	return &Reader{br: br}
}

// Reset discards all stream state — position and error — and restarts the
// Reader on src, retaining the decode working buffers. After Reset the
// Reader behaves exactly like NewReader(src). It always returns nil; the
// error return satisfies xcompress.ResetReader.
func (r *Reader) Reset(src io.Reader) error {
	r.br.Reset(src)
	r.pending = nil
	r.done = false
	r.started = false
	r.err = nil
	return nil
}

func (r *Reader) readHeader() error {
	m := r.hdr[:4]
	if _, err := io.ReadFull(r.br, m); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: short magic", ErrCorrupt)
	}
	if string(m) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	r.started = true
	return nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.pending) == 0 {
		if r.done {
			r.err = io.EOF
			return 0, io.EOF
		}
		if !r.started {
			if err := r.readHeader(); err != nil {
				r.err = err
				return 0, err
			}
		}
		if err := r.nextBlock(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

func (r *Reader) nextBlock() error {
	marker, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: missing block marker", ErrCorrupt)
	}
	if marker == 0 {
		r.done = true
		return nil
	}
	if marker != 1 {
		return fmt.Errorf("%w: bad block marker %d", ErrCorrupt, marker)
	}
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	origLen := binary.LittleEndian.Uint32(r.hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(r.hdr[4:8])
	primary := binary.LittleEndian.Uint32(r.hdr[8:12])
	if origLen > MaxBlockSize {
		return fmt.Errorf("%w: block length %d too large", ErrCorrupt, origLen)
	}
	r.bit.Reset(r.br)
	for i := range r.lengths {
		v, err := r.bit.ReadBits(lenBits)
		if err != nil {
			return fmt.Errorf("%w: short length table", ErrCorrupt)
		}
		r.lengths[i] = uint8(v)
	}
	if err := r.dec.Reset(r.lengths[:], &r.bit); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Each Huffman symbol goes straight into the inverse MTF, which fails
	// once its output would pass origLen: every symbol before EOB adds at
	// least one byte, so an over-long hostile stream stops after origLen
	// symbols. The output grows by append, as symbols arrive, so a header
	// claiming a large block costs nothing before its symbols do; a reused
	// Reader keeps the capacity, so steady-state blocks allocate nothing.
	r.unmtf.Reset(r.unmtf.Bytes(), int(origLen))
	for {
		s, err := r.dec.ReadSymbol()
		if err != nil {
			return fmt.Errorf("%w: symbol stream: %v", ErrCorrupt, err)
		}
		eob, err := r.unmtf.Put(s)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if eob {
			break
		}
	}
	transformed := r.unmtf.Bytes()
	if uint32(len(transformed)) != origLen {
		return fmt.Errorf("%w: block length mismatch (%d != %d)", ErrCorrupt, len(transformed), origLen)
	}
	block, tt, err := bwt.InverseCountedInto(r.block, r.tt, transformed, int(primary), r.unmtf.Counts())
	r.tt = tt
	if block != nil {
		r.block = block
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(block) != wantCRC {
		return ErrChecksum
	}
	r.pending = block
	// The bit reader took no byte past the one holding EOB's last bit (it
	// reads on demand, and the decoder accepts a code only from bits it
	// holds), and compressBlock zero-pads the stream to that byte's end, so
	// r.br is already at the next block marker. The padding bits left in
	// r.bit are discarded by its Reset for the next block.
	return nil
}

// Compress is a convenience helper compressing a whole buffer.
func Compress(data []byte) ([]byte, error) {
	return CompressSize(data, DefaultBlockSize)
}

// CompressSize compresses a whole buffer with the given block size.
func CompressSize(data []byte, blockSize int) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriterSize(&buf, blockSize)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress is a convenience helper expanding a whole buffer.
func Decompress(data []byte) ([]byte, error) {
	return io.ReadAll(NewReader(bytes.NewReader(data)))
}
