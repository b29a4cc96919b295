package bytesort

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExample16 is the sixteen-address example of the paper's Figure 1,
// expressed as 32-bit values left-aligned into 64-bit words so the four
// significant bytes occupy the four most-significant byte positions.
var paperExample16 = []uint64{
	0x00000000 << 32, 0xFF000007 << 32, 0x0001C000 << 32, 0xFF000006 << 32,
	0x00018000 << 32, 0xFF000005 << 32, 0x00014000 << 32, 0xFF000004 << 32,
	0x00010000 << 32, 0xFF000003 << 32, 0x0000C000 << 32, 0xFF000002 << 32,
	0x00008000 << 32, 0xFF000001 << 32, 0x00004000 << 32, 0xFF000000 << 32,
}

func TestPaperFigure1FirstBlocks(t *testing.T) {
	blocks := TransformBuffer(paperExample16, Sorted)
	n := len(paperExample16)
	if len(blocks) != 8*n {
		t.Fatalf("blocks length = %d, want %d", len(blocks), 8*n)
	}
	// Block 1 (first byte column in the paper's 32-bit example): the
	// most-significant byte in sequence order: 00 FF 00 FF ...
	want0 := make([]byte, n)
	for i := range want0 {
		if i%2 == 1 {
			want0[i] = 0xFF
		}
	}
	if !bytes.Equal(blocks[:n], want0) {
		t.Fatalf("block 0 = %x, want %x", blocks[:n], want0)
	}
	// Block 2 of the paper: after sorting by the first byte, the 00-prefixed
	// addresses in stable (original) order come first — second bytes
	// 00 01 01 01 01 00 00 00 — then the FF-prefixed ones, all 00.
	want1 := []byte{0x00, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(blocks[n:2*n], want1) {
		t.Fatalf("block 1 = %x, want %x", blocks[n:2*n], want1)
	}
}

func TestPaperFigure1RoundTrip(t *testing.T) {
	blocks := TransformBuffer(paperExample16, Sorted)
	got, err := InverseBuffer(blocks, Sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paperExample16) {
		t.Fatalf("inverse length %d", len(got))
	}
	for i := range got {
		if got[i] != paperExample16[i] {
			t.Fatalf("addr %d = %#x, want %#x", i, got[i], paperExample16[i])
		}
	}
}

func TestSectionFourExample(t *testing.T) {
	// The running example of §4.1: F200..F2FF interleaved with A100..A17F.
	// After bytesort, the low-byte block must contain 00..7F then 00..FF
	// (the A1 region grouped before the F2 region).
	var addrs []uint64
	k := 0
	for i := 0; i < 256; i++ {
		addrs = append(addrs, uint64(0xF200+i)<<48)
		if i%2 == 1 && k < 128 {
			addrs = append(addrs, uint64(0xA100+k)<<48)
			k++
		}
	}
	blocks := TransformBuffer(addrs, Sorted)
	n := len(addrs)
	low := blocks[n : 2*n] // second byte column (the interesting one here)
	// First 128 entries: the A1 region's low bytes 00..7F in order.
	for i := 0; i < 128; i++ {
		if low[i] != byte(i) {
			t.Fatalf("low[%d] = %#x, want %#x (A1 region not grouped)", i, low[i], byte(i))
		}
	}
	// Then the F2 region's low bytes 00..FF in order.
	for i := 0; i < 256; i++ {
		if low[128+i] != byte(i) {
			t.Fatalf("low[%d] = %#x, want %#x (F2 region not grouped)", 128+i, low[128+i], byte(i))
		}
	}
	got, err := InverseBuffer(blocks, Sorted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestUnshuffleLayout(t *testing.T) {
	addrs := []uint64{0x0102030405060708, 0x1112131415161718}
	blocks := TransformBuffer(addrs, Unshuffle)
	want := []byte{
		0x01, 0x11, 0x02, 0x12, 0x03, 0x13, 0x04, 0x14,
		0x05, 0x15, 0x06, 0x16, 0x07, 0x17, 0x08, 0x18,
	}
	if !bytes.Equal(blocks, want) {
		t.Fatalf("unshuffle = %x, want %x", blocks, want)
	}
}

func TestUnshuffleRoundTrip(t *testing.T) {
	addrs := []uint64{1, 2, 3, 0xFFFFFFFFFFFFFFFF, 0, 42}
	got, err := InverseBuffer(TransformBuffer(addrs, Unshuffle), Unshuffle)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d mismatch", i)
		}
	}
}

func TestStreamingRoundTripMultipleSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 10_000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 30))
	}
	for _, mode := range []Mode{Sorted, Unshuffle} {
		var buf bytes.Buffer
		e := NewEncoderMode(&buf, 777, mode) // forces many segments + short tail
		if err := e.WriteSlice(addrs); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoderMode(&buf, mode).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("mode %d: got %d addrs, want %d", mode, len(got), len(addrs))
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("mode %d: addr %d mismatch", mode, i)
			}
		}
	}
}

func TestDecoderAcceptsCleanEOFWithoutTerminator(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, 100)
	_ = e.WriteSlice([]uint64{1, 2, 3})
	_ = e.Flush() // note: Flush, not Close — no terminator
	got, err := NewDecoder(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d addrs", len(got))
	}
}

func TestDecoderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, 100)
	_ = e.WriteSlice([]uint64{1, 2, 3, 4, 5})
	_ = e.Close()
	data := buf.Bytes()
	_, err := NewDecoder(bytes.NewReader(data[:len(data)-10])).ReadAll()
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

// encodeStream bytesorts addrs into framed segments of bufAddrs.
func encodeStream(t testing.TB, addrs []uint64, bufAddrs int) []byte {
	var buf bytes.Buffer
	e := NewEncoder(&buf, bufAddrs)
	if err := e.WriteSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecoderLimit(t *testing.T) {
	addrs := make([]uint64, 300)
	for i := range addrs {
		addrs[i] = uint64(i) * 0x1001
	}
	data := encodeStream(t, addrs, 100) // three segments of 100
	for _, tc := range []struct {
		limit int64
		ok    bool
	}{{300, true}, {1 << 40, true}, {299, false}, {50, false}, {0, false}} {
		d := NewDecoder(bytes.NewReader(data))
		d.Limit(tc.limit)
		got, err := d.ReadAll()
		switch {
		case tc.ok && (err != nil || len(got) != len(addrs)):
			t.Fatalf("limit %d: %d addresses, err %v", tc.limit, len(got), err)
		case !tc.ok && !errors.Is(err, ErrCorrupt):
			t.Fatalf("limit %d: err = %v, want ErrCorrupt", tc.limit, err)
		}
		// Reset lifts the limit.
		d.Reset(bytes.NewReader(data))
		if got, err := d.ReadAll(); err != nil || len(got) != len(addrs) {
			t.Fatalf("limit %d, after Reset: %d addresses, err %v", tc.limit, len(got), err)
		}
	}
}

// FuzzDecoder decodes any bytes with the stream limited to len(data)
// addresses: the result is addresses, never more than the input has
// bytes for, or an error wrapping ErrCorrupt; never a panic.
func FuzzDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64, 300} {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<20)) << 6
		}
		f.Add(encodeStream(f, addrs, 100))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		d.Limit(int64(len(data)))
		addrs, err := d.ReadAll()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error without ErrCorrupt: %v", err)
		}
		if err == nil && 8*len(addrs) > len(data) {
			t.Fatalf("%d addresses from %d bytes", len(addrs), len(data))
		}
	})
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, 100)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(&buf).ReadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %v", got, err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, 10)
	_ = e.Close()
	if err := e.Write(1); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestReadAfterEOF(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, 10)
	_ = e.Close()
	d := NewDecoder(&buf)
	var one [1]uint64
	if n, err := d.ReadSlice(one[:]); n != 0 || err != io.EOF {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if n, err := d.ReadSlice(one[:]); n != 0 || err != io.EOF {
		t.Fatalf("second read = %d, %v", n, err)
	}
}

func TestInverseBufferBadLength(t *testing.T) {
	if _, err := InverseBuffer(make([]byte, 7), Sorted); err == nil {
		t.Fatal("non-multiple-of-8 length accepted")
	}
}

func TestStabilityPreservesOrderWithinRegion(t *testing.T) {
	// Addresses with identical high bytes must keep their relative order in
	// every sorted block (stable sort invariant from the paper).
	addrs := []uint64{
		0xAA00000000000005, 0xAA00000000000001, 0xAA00000000000003,
		0xBB00000000000002, 0xAA00000000000004,
	}
	blocks := TransformBuffer(addrs, Sorted)
	n := len(addrs)
	// The final block is the least-significant byte after all sorts. All AA
	// addresses come first (AA < BB) in original relative order.
	last := blocks[7*n:]
	want := []byte{5, 1, 3, 4, 2}
	if !bytes.Equal(last, want) {
		t.Fatalf("final block = %v, want %v", last, want)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, bufSize uint16) bool {
		bs := int(bufSize%512) + 1
		for _, mode := range []Mode{Sorted, Unshuffle} {
			var buf bytes.Buffer
			e := NewEncoderMode(&buf, bs, mode)
			if err := e.WriteSlice(addrs); err != nil {
				return false
			}
			if err := e.Close(); err != nil {
				return false
			}
			got, err := NewDecoderMode(&buf, mode).ReadAll()
			if err != nil {
				return false
			}
			if len(got) != len(addrs) {
				return false
			}
			for i := range addrs {
				if got[i] != addrs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressibilityImprovement(t *testing.T) {
	// The whole point: byte columns of structured addresses are more
	// repetitive than the interleaved layout. Verify the transform output
	// has long runs for a strided trace.
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = 0x00007F0000000000 + uint64(i)*64
	}
	blocks := TransformBuffer(addrs, Sorted)
	n := len(addrs)
	// Top 5 byte columns must be constant runs.
	for j := 0; j < 5; j++ {
		col := blocks[j*n : (j+1)*n]
		for i := 1; i < n; i++ {
			if col[i] != col[0] {
				t.Fatalf("column %d not constant at %d", j, i)
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63())
	}
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(io.Discard.(io.Writer), len(addrs))
		_ = e.WriteSlice(addrs)
		_ = e.Close()
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63())
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf, len(addrs))
	_ = e.WriteSlice(addrs)
	_ = e.Close()
	data := buf.Bytes()
	b.SetBytes(int64(len(addrs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDecoder(bytes.NewReader(data)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}
