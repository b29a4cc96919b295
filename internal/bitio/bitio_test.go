package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		if err := w.WriteBit(b); err != nil {
			t.Fatalf("WriteBit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.BitsWritten(); got != int64(len(bits)) {
		t.Fatalf("BitsWritten = %d, want %d", got, len(bits))
	}
	r := NewReader(&buf)
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestMSBFirstPacking(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// 0b1010_1100 written as two nibbles.
	if err := w.WriteBits(0b1010, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b1100, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0b1010_1100 {
		t.Fatalf("packed byte = %08b, want 10101100", got[0])
	}
}

func TestZeroPadding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0b111, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0b1110_0000 {
		t.Fatalf("padded byte = %08b, want 11100000", got[0])
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Only low 4 bits of 0xFF should be used.
	if err := w.WriteBits(0xFF, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0x0, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[0]; got != 0xF0 {
		t.Fatalf("byte = %02x, want f0", got)
	}
}

func TestTooManyBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0, 65); err != ErrTooManyBits {
		t.Fatalf("WriteBits(65) err = %v, want ErrTooManyBits", err)
	}
	r := NewReader(&buf)
	if _, err := r.ReadBits(65); err != ErrTooManyBits {
		t.Fatalf("ReadBits(65) err = %v, want ErrTooManyBits", err)
	}
}

func TestEOFBehaviour(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Fatalf("empty read err = %v, want io.EOF", err)
	}
	r = NewReader(bytes.NewReader([]byte{0xAB}))
	if _, err := r.ReadBits(4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(8); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial read err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestPeekFillSkipAtEOF walks the buffered-read methods over a two-byte
// stream to its end: Peek zero-pads past the bits held and never reads,
// Fill takes exactly one byte and fails with a sticky io.EOF after the
// last, and Skip consumes buffered bits that ReadBits then continues from.
func TestPeekFillSkipAtEOF(t *testing.T) {
	src := bytes.NewReader([]byte{0xA5, 0x3C})
	r := NewReader(src)
	if got := r.Peek(10); got != 0 || r.Buffered() != 0 || src.Len() != 2 {
		t.Fatalf("Peek on empty buffer = %#x, buffered %d, source left %d", got, r.Buffered(), src.Len())
	}
	if err := r.Fill(); err != nil || r.Buffered() != 8 || src.Len() != 1 {
		t.Fatalf("Fill: err %v, buffered %d, source left %d", err, r.Buffered(), src.Len())
	}
	if got := r.Peek(10); got != 0xA5<<2 {
		t.Fatalf("Peek(10) over 8 bits = %#x, want %#x", got, 0xA5<<2)
	}
	r.Skip(3)
	if err := r.Fill(); err != nil || r.Buffered() != 13 || src.Len() != 0 {
		t.Fatalf("second Fill: err %v, buffered %d, source left %d", err, r.Buffered(), src.Len())
	}
	if got := r.Peek(13); got != 0x053C {
		t.Fatalf("Peek(13) = %#x, want 0x53c", got)
	}
	if err := r.Fill(); err != io.EOF {
		t.Fatalf("Fill at end of stream = %v, want io.EOF", err)
	}
	if got := r.Peek(16); got != 0x053C<<3 || r.Buffered() != 13 {
		t.Fatalf("Peek(16) after EOF = %#x, buffered %d", got, r.Buffered())
	}
	r.Skip(13)
	if r.Buffered() != 0 || r.BitsRead() != 16 {
		t.Fatalf("after Skip: buffered %d, BitsRead %d", r.Buffered(), r.BitsRead())
	}
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Fatalf("ReadBits after EOF = %v, want io.EOF", err)
	}
}

// TestFillFullBuffer checks that Fill refuses to overflow the 64-bit
// buffer and that ReadBits drains a multi-byte buffer before reading.
func TestFillFullBuffer(t *testing.T) {
	src := bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	r := NewReader(src)
	for i := 0; i < 8; i++ {
		if err := r.Fill(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Fill(); err != ErrTooManyBits || src.Len() != 1 {
		t.Fatalf("Fill on full buffer = %v, source left %d", err, src.Len())
	}
	if v, err := r.ReadBits(12); err != nil || v != 0x010 {
		t.Fatalf("ReadBits(12) = %#x, %v", v, err)
	}
	if v, err := r.ReadBits(60); err != nil || v != 0x0203040506070809 {
		t.Fatalf("ReadBits(60) = %#x, %v", v, err)
	}
}

func TestZeroBitOps(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(123, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("zero-bit write produced %d bytes", buf.Len())
	}
	r := NewReader(&buf)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
}

func TestFull64BitValues(t *testing.T) {
	vals := []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000, 0x0123456789ABCDEF}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range vals {
		if err := w.WriteBits(v, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range vals {
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestAlignByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0b101, 3)
	_ = w.Flush() // pad to byte boundary
	_ = w.WriteBits(0xCD, 8)
	_ = w.Close()

	r := NewReader(&buf)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("prefix = %03b", v)
	}
	r.AlignByte()
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Fatalf("aligned byte = %#x, want 0xcd", v)
	}
}

func TestFlushThenContinue(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0xA, 4)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = w.WriteBits(0xB, 4)
	_ = w.Close()
	want := []byte{0xA0, 0xB0}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bytes = %x, want %x", buf.Bytes(), want)
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, count)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range items {
			width := uint(rng.Intn(64) + 1)
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			items[i] = item{v, width}
			if err := w.WriteBits(v, width); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(&buf)
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsReadCounter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(0xFFFF, 16)
	_ = w.Close()
	r := NewReader(&buf)
	_, _ = r.ReadBits(7)
	_, _ = r.ReadBits(9)
	if r.BitsRead() != 16 {
		t.Fatalf("BitsRead = %d, want 16", r.BitsRead())
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(io.Discard)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		_ = w.WriteBits(uint64(i), 64)
	}
}
