package huffman

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"atc/internal/bitio"
	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/mtf"
	"atc/internal/workload"
)

func roundTrip(t *testing.T, data []byte, maxBits int) {
	t.Helper()
	freqs := make([]int64, 256)
	for _, b := range data {
		freqs[b]++
	}
	lengths, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatalf("BuildLengths: %v", err)
	}
	coded, err := encode(lengths, data)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReader{b: coded}
	br := bitio.NewReader(src)
	dec, err := NewDecoder(lengths, br)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	for i, want := range data {
		got, err := dec.ReadSymbol()
		if err != nil {
			t.Fatalf("ReadSymbol %d: %v", i, err)
		}
		if got != int(want) {
			t.Fatalf("symbol %d = %d, want %d", i, got, want)
		}
		// The decoder takes a byte only when a code needs its bits.
		if bits := br.BitsRead(); int64(src.n) != (bits+7)/8 {
			t.Fatalf("after symbol %d: %d bytes taken for %d bits", i, src.n, bits)
		}
	}
}

// encode codes syms with the canonical code for lengths, zero-padded to a
// byte boundary.
func encode[S uint8 | uint16](lengths []uint8, syms []S) ([]byte, error) {
	cb, err := NewCodebook(lengths)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	enc := NewEncoder(cb, bw)
	for _, s := range syms {
		if err := enc.WriteSymbol(int(s)); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// countingReader is a byte source that counts the bytes taken from it.
type countingReader struct {
	b []byte
	n int
}

func (c *countingReader) ReadByte() (byte, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	c.n++
	return c.b[c.n-1], nil
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.n == len(c.b) {
		return 0, io.EOF
	}
	k := copy(p, c.b[c.n:])
	c.n += k
	return k, nil
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []byte("abracadabra, the quick brown fox jumps over the lazy dog"), MaxBits)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{42}, 100), MaxBits)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []byte{0, 1, 0, 0, 1, 0, 0, 0, 1}, MaxBits)
}

func TestRoundTripAllBytes(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data, MaxBits)
}

func TestRoundTripSkewed(t *testing.T) {
	// Exponentially skewed frequencies force deep codes.
	var data []byte
	for i := 0; i < 20; i++ {
		data = append(data, bytes.Repeat([]byte{byte(i)}, 1<<uint(i%18))...)
	}
	roundTrip(t, data, MaxBits)
}

func TestLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies make unconstrained Huffman deep.
	freqs := make([]int64, 32)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	for _, limit := range []int{5, 8, 10, MaxBits} {
		lengths, err := BuildLengths(freqs, limit)
		if err != nil {
			t.Fatalf("BuildLengths(limit=%d): %v", limit, err)
		}
		var kraft float64
		for sym, l := range lengths {
			if freqs[sym] > 0 && l == 0 {
				t.Fatalf("limit %d: symbol %d lost its code", limit, sym)
			}
			if int(l) > limit {
				t.Fatalf("limit %d: length %d exceeds limit", limit, l)
			}
			if l > 0 {
				kraft += 1 / float64(uint64(1)<<l)
			}
		}
		if kraft > 1.0000001 {
			t.Fatalf("limit %d: Kraft sum %v > 1", limit, kraft)
		}
		if _, err := NewCodebook(lengths); err != nil {
			t.Fatalf("limit %d: codebook rejected: %v", limit, err)
		}
	}
}

func TestNoSymbols(t *testing.T) {
	if _, err := BuildLengths(make([]int64, 256), MaxBits); err == nil {
		t.Fatal("BuildLengths on empty frequencies should fail")
	}
}

func TestBadMaxBits(t *testing.T) {
	freqs := []int64{1, 2, 3}
	if _, err := BuildLengths(freqs, 0); err == nil {
		t.Fatal("maxBits=0 should fail")
	}
	if _, err := BuildLengths(freqs, 64); err == nil {
		t.Fatal("maxBits=64 should fail")
	}
	if _, err := BuildLengths(freqs, 1); err == nil {
		t.Fatal("three symbols in 1-bit codes should fail")
	}
}

func TestOverfullLengthsRejected(t *testing.T) {
	// Three codes of length 1 violate Kraft.
	if _, err := NewCodebook([]uint8{1, 1, 1}); err == nil {
		t.Fatal("overfull length table accepted")
	}
}

func TestCanonicalCodeOrder(t *testing.T) {
	// lengths: a=2 b=1 c=3 d=3 -> canonical: b=0, a=10, c=110, d=111
	lengths := []uint8{2, 1, 3, 3}
	cb, err := NewCodebook(lengths)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0b10, 0b0, 0b110, 0b111}
	for sym, w := range want {
		if cb.Codes[sym] != w {
			t.Errorf("code[%d] = %b, want %b", sym, cb.Codes[sym], w)
		}
	}
}

func TestEncoderRejectsUncodedSymbol(t *testing.T) {
	cb, err := NewCodebook([]uint8{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(cb, bitio.NewWriter(&bytes.Buffer{}))
	if err := enc.WriteSymbol(2); err == nil {
		t.Fatal("encoding a symbol without a code should fail")
	}
}

func TestOptimalityOrdering(t *testing.T) {
	// More frequent symbols must never get longer codes.
	freqs := []int64{100, 50, 25, 12, 6, 3, 1, 1}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i-1] > freqs[i] && lengths[i-1] > lengths[i] {
			t.Fatalf("freq %d > %d but length %d > %d", freqs[i-1], freqs[i], lengths[i-1], lengths[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%2048) + 1
		data := make([]byte, size)
		// Mix of skewed and uniform distributions.
		nSyms := rng.Intn(255) + 1
		for i := range data {
			data[i] = byte(rng.Intn(nSyms))
		}
		roundTrip(t, data, MaxBits)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refDecoder is the bit-serial canonical decoder that the table-driven
// ReadSymbol replaced, kept as the reference it is checked against: it
// reads one bit at a time and, after each, tests whether the code so far
// falls in the range of codes of that length.
type refDecoder struct {
	r         *bitio.Reader
	firstCode []uint32
	count     []int
	offset    []int
	symOrder  []int
	maxLen    int
}

func newRefDecoder(lengths []uint8, r *bitio.Reader) (*refDecoder, error) {
	maxLen := 0
	for _, l := range lengths {
		maxLen = max(maxLen, int(l))
	}
	if maxLen == 0 || maxLen > maxCodeLen {
		return nil, errBadLengths
	}
	d := &refDecoder{
		r:         r,
		firstCode: make([]uint32, maxLen+1),
		count:     make([]int, maxLen+1),
		offset:    make([]int, maxLen+1),
		maxLen:    maxLen,
	}
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
		}
	}
	var kraft int64
	for l := 1; l <= maxLen; l++ {
		kraft += int64(d.count[l]) << uint(maxLen-l)
	}
	if kraft > int64(1)<<uint(maxLen) {
		return nil, errBadLengths
	}
	code, total := uint32(0), 0
	for l := 1; l <= maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.count[l-1])) << 1
		}
		d.firstCode[l] = code
		d.offset[l] = total
		total += d.count[l]
		for sym, sl := range lengths {
			if int(sl) == l {
				d.symOrder = append(d.symOrder, sym)
			}
		}
	}
	return d, nil
}

func (d *refDecoder) ReadSymbol() (int, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		bit, err := d.r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(bit)
		if idx := int(code) - int(d.firstCode[l]); idx >= 0 && idx < d.count[l] {
			return d.symOrder[d.offset[l]+idx], nil
		}
	}
	return 0, errBadLengths
}

// fuzzLengths turns fuzz bytes into a code-length table of up to 300
// symbols. An even first byte takes the rest as raw lengths 0–20, which
// gives over-full and under-full tables; an odd one takes them as
// exponents of symbol frequencies and builds a complete table with
// BuildLengths, limited to 1–20 bits, which gives deep codes.
func fuzzLengths(spec []byte) []uint8 {
	if len(spec) < 2 || len(spec) > 301 {
		return nil
	}
	if spec[0]&1 == 0 {
		lengths := make([]uint8, len(spec)-1)
		for i, b := range spec[1:] {
			lengths[i] = b % 21
		}
		return lengths
	}
	freqs := make([]int64, len(spec)-1)
	for i, b := range spec[1:] {
		if b != 0 {
			freqs[i] = 1 << (b % 48)
		}
	}
	lengths, err := BuildLengths(freqs, 1+int(spec[0]>>1)%20)
	if err != nil {
		return nil
	}
	return lengths
}

// FuzzHuffmanDecode checks the table decoder against refDecoder on any
// length table and any bit stream: the same tables are rejected, and the
// two return the same symbols after consuming the same bits, or fail at
// the same symbol.
func FuzzHuffmanDecode(f *testing.F) {
	f.Add([]byte{0, 1, 1}, []byte{0x5a})
	f.Add([]byte{0, 1, 1, 1}, []byte{0xff})                 // over-full
	f.Add([]byte{0, 3, 0, 0, 20}, []byte{0x00, 0xff, 0x12}) // under-full
	f.Add([]byte{0, 2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12}, bytes.Repeat([]byte{0xfe}, 12))
	f.Add([]byte{39, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25},
		bytes.Repeat([]byte{0xff, 0xfe, 0x01}, 20))
	f.Add(append([]byte{31}, bytes.Repeat([]byte{1, 40, 3, 9, 0}, 50)...), bytes.Repeat([]byte{0x9c, 0x37, 0xe1}, 40))
	f.Fuzz(func(t *testing.T, spec, stream []byte) {
		lengths := fuzzLengths(spec)
		if lengths == nil {
			return
		}
		ref, refErr := newRefDecoder(lengths, bitio.NewReader(bytes.NewReader(stream)))
		var d Decoder
		br := bitio.NewReader(bytes.NewReader(stream))
		if err := d.Reset(lengths, br); (err == nil) != (refErr == nil) {
			t.Fatalf("Reset(%v) = %v, reference %v", lengths, err, refErr)
		} else if err != nil {
			return
		}
		for i := 0; i <= 8*len(stream); i++ {
			got, err := d.ReadSymbol()
			want, wantErr := ref.ReadSymbol()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("symbol %d: err %v, reference %v", i, err, wantErr)
			}
			if err != nil {
				return
			}
			if got != want || br.BitsRead() != ref.r.BitsRead() {
				t.Fatalf("symbol %d: %d after %d bits, reference %d after %d", i, got, br.BitsRead(), want, ref.r.BitsRead())
			}
		}
		t.Fatalf("decoded %d symbols from %d bytes", 8*len(stream)+1, len(stream))
	})
}

// TestDecodeAllocFree pins that a warmed-up Decoder is reset and decodes
// a whole block without allocating.
func TestDecodeAllocFree(t *testing.T) {
	data := make([]byte, 0, 1<<16)
	for i := 0; len(data) < cap(data); i++ {
		data = append(data, bytes.Repeat([]byte{byte(i)}, 1<<(i%14))...)
	}
	freqs := make([]int64, 256)
	for _, b := range data {
		freqs[b]++
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := encode(lengths, data)
	if err != nil {
		t.Fatal(err)
	}
	var (
		src  bytes.Reader
		bits bitio.Reader
		dec  Decoder
	)
	decode := func() {
		src.Reset(coded)
		bits.Reset(&src)
		if err := dec.Reset(lengths, &bits); err != nil {
			t.Fatal(err)
		}
		for range data {
			if _, err := dec.ReadSymbol(); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(10, decode); allocs != 0 {
		t.Fatalf("Reset and decode allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Intn(32))
	}
	freqs := make([]int64, 256)
	for _, v := range data {
		freqs[v]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	cb, _ := NewCodebook(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		enc := NewEncoder(cb, bw)
		for _, v := range data {
			_ = enc.WriteSymbol(int(v))
		}
		_ = bw.Close()
	}
}

// BenchmarkDecode decodes the Huffman-coded MTF symbols of one 900 KB bsc
// block of a cache-filtered 403.gcc trace, per input byte of the block.
func BenchmarkDecode(b *testing.B) {
	const n = 900 * 1000
	addrs, err := workload.GenerateFiltered("403.gcc", n/8+1, 1)
	if err != nil {
		b.Fatal(err)
	}
	block := bytesort.TransformBuffer(addrs, bytesort.Sorted)[:n]
	transformed, _ := bwt.Transform(block)
	syms := mtf.Encode(transformed)
	freqs := make([]int64, mtf.NumSyms)
	for _, s := range syms {
		freqs[s]++
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		b.Fatal(err)
	}
	coded, err := encode(lengths, syms)
	if err != nil {
		b.Fatal(err)
	}
	var (
		src  bytes.Reader
		bits bitio.Reader
		dec  Decoder
	)
	b.SetBytes(n)
	b.ReportAllocs()
	for b.Loop() {
		src.Reset(coded)
		bits.Reset(&src)
		if err := dec.Reset(lengths, &bits); err != nil {
			b.Fatal(err)
		}
		for range syms {
			if _, err := dec.ReadSymbol(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
