package bsc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"atc/internal/bitio"
	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/huffman"
	"atc/internal/mtf"
	"atc/internal/workload"
)

func roundTrip(t *testing.T, data []byte, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, blockSize)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := io.ReadAll(NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
	}
	return buf.Bytes()
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil, DefaultBlockSize)
}

func TestRoundTripText(t *testing.T) {
	roundTrip(t, []byte("the quick brown fox jumps over the lazy dog"), DefaultBlockSize)
}

func TestRoundTripMultipleBlocks(t *testing.T) {
	data := bytes.Repeat([]byte("block sorting compressors like repeated text. "), 100)
	compressed := roundTrip(t, data, 256) // forces many blocks
	if len(compressed) >= len(data) {
		t.Logf("note: tiny blocks inflate (in=%d out=%d); expected with 256-byte blocks", len(data), len(compressed))
	}
}

func TestRoundTripBlockBoundaryExact(t *testing.T) {
	// Data exactly filling N blocks.
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 64) // 256 bytes
	roundTrip(t, data, 128)
	roundTrip(t, data, 256)
	roundTrip(t, data, 255)
}

func TestRoundTripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	roundTrip(t, data, 32<<10)
}

func TestCompressionRatioOnRepetitive(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 10000) // 80 KB
	compressed := roundTrip(t, data, DefaultBlockSize)
	if len(compressed) > len(data)/20 {
		t.Fatalf("repetitive data compressed to %d bytes (>5%% of %d); BWT pipeline ineffective", len(compressed), len(data))
	}
}

func TestConvenienceHelpers(t *testing.T) {
	data := []byte("convenience round trip")
	c, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("helper round trip mismatch")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestDoubleCloseIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _ = w.Write([]byte("data"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("second Close wrote more data")
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Decompress([]byte("NOPE...."))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	c, err := Compress([]byte("some data that will be truncated"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 5, 10, len(c) - 1} {
		if cut >= len(c) {
			continue
		}
		_, err := Decompress(c[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(c))
		}
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	data := bytes.Repeat([]byte("corruption canary "), 200)
	c, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bits in the middle of the stream. Any of CRC/structure checks may
	// fire, but silent wrong output is a failure.
	detected := 0
	for _, pos := range []int{len(c) / 2, len(c)/2 + 7, len(c) - 10} {
		mutated := append([]byte(nil), c...)
		mutated[pos] ^= 0x41
		got, err := Decompress(mutated)
		if err != nil {
			detected++
			continue
		}
		if bytes.Equal(got, data) {
			// Flip landed in dont-care padding; acceptable.
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no corruption detected for any mutation")
	}
}

// TestLargeBlockClaimAllocatesLittle patches the block header of a small
// stream to claim a MaxBlockSize block, and then one past it. Decoding
// must fail with ErrCorrupt having allocated for the symbols the stream
// holds, not for the block the header claims.
func TestLargeBlockClaimAllocatesLittle(t *testing.T) {
	for _, claim := range []uint32{MaxBlockSize, 1 << 24} {
		c, err := Compress(bytes.Repeat([]byte("a claim is not data "), 20))
		if err != nil {
			t.Fatal(err)
		}
		// The magic, then block marker 1 and the header's origLen field.
		if string(c[:len(magic)]) != magic || c[len(magic)] != 1 {
			t.Fatalf("unexpected stream start %x", c[:len(magic)+1])
		}
		binary.LittleEndian.PutUint32(c[len(magic)+1:], claim)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = Decompress(c)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("claim %d: err = %v, want ErrCorrupt", claim, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("claim %d: the %d-byte stream allocated %d KiB, want < 1 MiB", claim, len(c), alloc>>10)
		}
	}
}

func TestEmptyWriteProducesValidStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream decoded to %d bytes", len(got))
	}
}

func TestSmallReads(t *testing.T) {
	data := bytes.Repeat([]byte("tiny reads "), 500)
	c, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(c))
	var got []byte
	one := make([]byte, 1)
	for {
		n, err := r.Read(one)
		if n > 0 {
			got = append(got, one[0])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("byte-at-a-time read mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, bs uint16) bool {
		blockSize := int(bs%4096) + 1
		c, err := CompressSize(data, blockSize)
		if err != nil {
			return false
		}
		d, err := Decompress(c)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(d) == 0
		}
		return bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUncompressibleDataSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, 300_000)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	compressed := roundTrip(t, data, DefaultBlockSize)
	// Random bytes should roughly break even (within ~6% overhead).
	if len(compressed) > len(data)+len(data)/16 {
		t.Fatalf("random data expanded to %d bytes from %d", len(compressed), len(data))
	}
}

func BenchmarkCompress(b *testing.B) {
	data := bytes.Repeat([]byte("benchmark data with some repetition in it. "), 5000)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompress decodes repetitive text and one 900 KB block of a
// cache-filtered 403.gcc trace as bytesort lays it out for bsc, per
// decompressed byte.
func BenchmarkDecompress(b *testing.B) {
	cases := []struct {
		name string
		in   func(b *testing.B) []byte
	}{
		{"text", func(*testing.B) []byte {
			return bytes.Repeat([]byte("benchmark data with some repetition in it. "), 5000)
		}},
		{"gcc", func(b *testing.B) []byte {
			addrs, err := workload.GenerateFiltered("403.gcc", DefaultBlockSize/8+1, 1)
			if err != nil {
				b.Fatal(err)
			}
			return bytesort.TransformBuffer(addrs, bytesort.Sorted)[:DefaultBlockSize]
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			data := c.in(b)
			compressed, err := Compress(data)
			if err != nil {
				b.Fatal(err)
			}
			r := NewReader(nil)
			var src bytes.Reader
			decode := func() {
				src.Reset(compressed)
				if err := r.Reset(&src); err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, r); err != nil {
					b.Fatal(err)
				}
			}
			decode() // grow the Reader's block buffers
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				decode()
			}
		})
	}
}

// TestBlocksEndAtEveryBitOffset decodes a stream of blocks whose Huffman
// streams end at every bit offset 0–7 of their last byte, each followed
// by another block or the end marker. The bit reader shares the block
// framing's byte source, so a decoder that took one byte past a block's
// padding would misread the next block marker.
func TestBlocksEndAtEveryBitOffset(t *testing.T) {
	const size, perOffset = 48, 4
	rng := rand.New(rand.NewSource(7))
	var blocks [8][][]byte
	for found := 0; found < 8*perOffset; {
		block := make([]byte, size)
		for i := range block {
			block[i] = byte(rng.Intn(1 + rng.Intn(40)))
		}
		if end := streamBits(t, block) % 8; len(blocks[end]) < perOffset {
			blocks[end] = append(blocks[end], block)
			found++
		}
	}
	// Every offset is followed by a block of every offset, then the end
	// marker.
	var data []byte
	for k := range perOffset {
		for end := range 8 {
			for next := range 8 {
				data = append(data, blocks[end][k]...)
				data = append(data, blocks[next][(k+1)%perOffset]...)
			}
		}
	}
	roundTrip(t, data, size)
}

// streamBits counts the bits compressBlock writes for block after its
// byte-aligned header: the code-length table and the coded symbols.
func streamBits(t *testing.T, block []byte) int {
	transformed, _ := bwt.Transform(block)
	syms := mtf.Encode(transformed)
	freqs := make([]int64, mtf.NumSyms)
	for _, s := range syms {
		freqs[s]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	bits := lenBits * len(lengths)
	for _, s := range syms {
		bits += int(lengths[s])
	}
	return bits
}

// TestHostileZeroRunBounded frames a block that declares 100 bytes but
// whose symbols are 40 RUNA digits — a zero run of 2^40-1 bytes — and
// EOB. The reader must reject it without expanding the run.
func TestHostileZeroRunBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	hdr := [13]byte{1, 100}
	buf.Write(hdr[:])
	lengths := make([]uint8, mtf.NumSyms)
	lengths[mtf.RunA], lengths[mtf.EOB] = 1, 1
	cb, err := huffman.NewCodebook(lengths)
	if err != nil {
		t.Fatal(err)
	}
	bw := bitio.NewWriter(&buf)
	for _, l := range lengths {
		if err := bw.WriteBits(uint64(l), lenBits); err != nil {
			t.Fatal(err)
		}
	}
	enc := huffman.NewEncoder(cb, bw)
	for i := 0; i < 40; i++ {
		if err := enc.WriteSymbol(mtf.RunA); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.WriteSymbol(mtf.EOB); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, err := Decompress(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// longCodeStream frames a one-byte block whose length table gives EOB a
// 21-bit code, one bit over the format's bound. Everything else about the
// block is valid: the code is under-full but prefix-free, and the CRC and
// primary index are the block's own.
func longCodeStream(tb testing.TB) []byte {
	block := []byte("a")
	transformed, primary := bwt.Transform(block)
	syms := mtf.Encode(transformed)
	if len(syms) != 2 || syms[1] != mtf.EOB {
		tb.Fatalf("mtf.Encode(%q) = %v, want one symbol and EOB", block, syms)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	hdr := [13]byte{1}
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(block)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(block))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(primary))
	buf.Write(hdr[:])
	lengths := make([]uint8, mtf.NumSyms)
	lengths[syms[0]], lengths[mtf.EOB] = 1, 21
	bw := bitio.NewWriter(&buf)
	for _, l := range lengths {
		if err := bw.WriteBits(uint64(l), lenBits); err != nil {
			tb.Fatal(err)
		}
	}
	// The canonical codes: 0 for the 1-bit symbol, and for EOB, the first
	// 21-bit code, 1 followed by 20 zeros.
	if err := bw.WriteBits(0, 1); err != nil {
		tb.Fatal(err)
	}
	if err := bw.WriteBits(1<<20, 21); err != nil {
		tb.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		tb.Fatal(err)
	}
	buf.WriteByte(0)
	return buf.Bytes()
}

// TestLengthAboveMaxBitsCorrupt pins the format's bound on code lengths:
// a block is corrupt when its table holds a length above huffman.MaxBits,
// even one its 5-bit field can carry and that would decode.
func TestLengthAboveMaxBitsCorrupt(t *testing.T) {
	if got, err := Decompress(longCodeStream(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress = %q, %v; want ErrCorrupt", got, err)
	}
}

// FuzzReader decompresses any bytes as a whole bsc stream and checks the
// Reader against refDecompress: both give the same bytes, and either both
// succeed or both fail, with the same one of ErrCorrupt and ErrChecksum.
// It never panics.
func FuzzReader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 600)
	rng.Read(random)
	for _, in := range []struct {
		data      []byte
		blockSize int
	}{
		{nil, DefaultBlockSize},
		{[]byte("abracadabra, the quick brown fox jumps over the lazy dog"), DefaultBlockSize},
		{bytes.Repeat([]byte("corruption canary "), 40), 256},
		{random, 200},
		{bytes.Repeat([]byte{0}, 3000), 1000},
		{[]byte("a"), DefaultBlockSize},
		{oneBlock(f, "ends in a zero run", []byte("zzzzzzzzzzzz"), func(syms []uint16, _ int) bool {
			return syms[len(syms)-2] <= mtf.RunB
		}), DefaultBlockSize},
		{oneBlock(f, "has primary 1", []byte("abcdefgh"), func(_ []uint16, primary int) bool {
			return primary == 1
		}), DefaultBlockSize},
		{oneBlock(f, "has primary n", []byte("hgfedcba"), func(_ []uint16, primary int) bool {
			return primary == 8
		}), DefaultBlockSize},
	} {
		c, err := CompressSize(in.data, in.blockSize)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c)
	}
	f.Add(longCodeStream(f))
	f.Fuzz(func(t *testing.T, stream []byte) {
		got, err := io.ReadAll(NewReader(bytes.NewReader(stream)))
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("error %v wraps neither ErrCorrupt nor ErrChecksum", err)
		}
		want, refErr := refDecompress(stream)
		if (err == nil) != (refErr == nil) || errors.Is(err, ErrChecksum) != errors.Is(refErr, ErrChecksum) {
			t.Fatalf("Reader error %v, reference error %v", err, refErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Reader gave %d bytes, reference %d, and they differ", len(got), len(want))
		}
	})
}

// oneBlock returns block after checking that its symbol stream and BWT
// primary index have the property a seed is named for.
func oneBlock(tb testing.TB, what string, block []byte, ok func(syms []uint16, primary int) bool) []byte {
	transformed, primary := bwt.Transform(block)
	if !ok(mtf.Encode(transformed), primary) {
		tb.Fatalf("block %q no longer %s", block, what)
	}
	return block
}

// refDecompress is the stage-by-stage decode that the Reader's one pass
// per stage replaced, kept as FuzzReader's reference. Each block reads its
// whole Huffman symbol stream into an array of at most origLen+1 symbols,
// then inverts the MTF and zero-run coding (refMTFDecode), then the BWT
// (refInverseBWT). It returns the bytes of every block before the first
// bad one.
func refDecompress(stream []byte) ([]byte, error) {
	br := bufio.NewReader(bytes.NewReader(stream))
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, ErrCorrupt
	}
	if string(m[:]) != magic {
		return nil, ErrCorrupt
	}
	var (
		out     []byte
		bit     bitio.Reader
		dec     huffman.Decoder
		lengths [mtf.NumSyms]uint8
		hdr     [12]byte
	)
	for {
		marker, err := br.ReadByte()
		if err != nil || marker > 1 {
			return out, ErrCorrupt
		}
		if marker == 0 {
			return out, nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return out, ErrCorrupt
		}
		origLen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		primary := binary.LittleEndian.Uint32(hdr[8:12])
		if origLen > MaxBlockSize {
			return out, ErrCorrupt
		}
		bit.Reset(br)
		for i := range lengths {
			v, err := bit.ReadBits(lenBits)
			if err != nil {
				return out, ErrCorrupt
			}
			lengths[i] = uint8(v)
		}
		if err := dec.Reset(lengths[:], &bit); err != nil {
			return out, ErrCorrupt
		}
		var syms []uint16
		for {
			s, err := dec.ReadSymbol()
			if err != nil || len(syms) == int(origLen)+1 {
				return out, ErrCorrupt
			}
			syms = append(syms, uint16(s))
			if s == mtf.EOB {
				break
			}
		}
		transformed, err := refMTFDecode(syms, int(origLen))
		if err != nil || len(transformed) != int(origLen) {
			return out, ErrCorrupt
		}
		block, err := refInverseBWT(transformed, int(primary))
		if err != nil {
			return out, ErrCorrupt
		}
		if crc32.ChecksumIEEE(block) != wantCRC {
			return out, ErrChecksum
		}
		out = append(out, block...)
	}
}

// refMTFDecode inverts the MTF and zero-run coding of syms, which end in
// EOB, failing when a zero run would take the output past limit bytes.
func refMTFDecode(syms []uint16, limit int) ([]byte, error) {
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	var out []byte
	for i := 0; i < len(syms); {
		switch s := syms[i]; {
		case s == mtf.EOB:
			return out, nil
		case s == mtf.RunA || s == mtf.RunB:
			run := 0
			for shift := 0; i < len(syms) && syms[i] <= mtf.RunB; shift++ {
				run += int(syms[i]+1) << shift
				i++
				if run > limit-len(out) {
					return nil, ErrCorrupt
				}
			}
			out = append(out, bytes.Repeat(order[:1], run)...)
		case s <= 256:
			pos := int(s) - 1
			b := order[pos]
			copy(order[1:pos+1], order[:pos])
			order[0] = b
			out = append(out, b)
			i++
		default:
			return nil, ErrCorrupt
		}
	}
	return nil, ErrCorrupt
}

// refInverseBWT inverts the BWT with a successor table and a branch on the
// sentinel's row for every byte.
func refInverseBWT(out []byte, primary int) ([]byte, error) {
	n := len(out)
	if n == 0 {
		if primary != 0 {
			return nil, ErrCorrupt
		}
		return nil, nil
	}
	if primary < 1 || primary > n {
		return nil, ErrCorrupt
	}
	// realByte maps a row of the (n+1)-row last column, with the sentinel
	// at row primary, to its byte.
	realByte := func(i int) byte {
		if i < primary {
			return out[i]
		}
		return out[i-1]
	}
	var start [256]int
	for _, b := range out {
		start[b]++
	}
	sum := 1 // row 0 of the first column is the sentinel
	for c, k := range start {
		start[c] = sum
		sum += k
	}
	next := make([]int32, n+1)
	for i := 0; i <= n; i++ {
		if i != primary {
			c := realByte(i)
			next[i] = int32(start[c])
			start[c]++
		}
	}
	s := make([]byte, n)
	i := 0
	for k := n - 1; k >= 0; k-- {
		if i == primary {
			return nil, ErrCorrupt
		}
		s[k] = realByte(i)
		i = int(next[i])
	}
	if i != primary {
		return nil, ErrCorrupt
	}
	return s, nil
}
