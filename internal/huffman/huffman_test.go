package huffman

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"slices"
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
	var dec Decoder
	if err := dec.Reset(lengths, br); err != nil {
		t.Fatalf("Reset: %v", err)
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
	if _, err := BuildLengths(freqs, MaxBits+1); err == nil {
		t.Fatalf("maxBits=%d should fail", MaxBits+1)
	}
	if _, err := BuildLengths(freqs, 1); err == nil {
		t.Fatal("three symbols in 1-bit codes should fail")
	}
}

// TestFrequencyOverflow pins that a frequency total past math.MaxInt64 is
// an error, not a tree built from wrapped weights.
func TestFrequencyOverflow(t *testing.T) {
	if _, err := BuildLengths([]int64{math.MaxInt64, 1, 1}, MaxBits); err == nil {
		t.Fatal("frequencies summing past MaxInt64 accepted")
	}
	if _, err := BuildLengths([]int64{math.MaxInt64 - 2, 1, 1}, MaxBits); err != nil {
		t.Fatalf("frequencies summing to MaxInt64: %v", err)
	}
}

func TestOverfullLengthsRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lengths []uint8
	}{
		{"three 1-bit codes", []uint8{1, 1, 1}},
		// 128 one-bit codes plus one 57-bit code: a Kraft sum of shifted
		// counts overflows int64 on it and reads as within bounds.
		{"128 1-bit and a 57-bit code", append(bytes.Repeat([]uint8{1}, 128), 57)},
		{"a 21-bit code", []uint8{1, 2, 21}},
		{"no code", []uint8{0, 0}},
		{"empty", nil},
	} {
		if _, err := NewCodebook(tc.lengths); err == nil {
			t.Errorf("%s: NewCodebook accepted %v", tc.name, tc.lengths)
		}
		var d Decoder
		if err := d.Reset(tc.lengths, bitio.NewReader(bytes.NewReader(nil))); err == nil {
			t.Errorf("%s: Decoder.Reset accepted %v", tc.name, tc.lengths)
		}
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
	if maxLen == 0 || maxLen > MaxBits {
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

// FuzzCodebook checks that the encoder and the decoder validate a length
// table alike: NewCodebook fails exactly when Decoder.Reset fails, and when
// both accept, any symbol sequence encodes and decodes back, the decoder
// reading exactly the bits the encoder wrote.
func FuzzCodebook(f *testing.F) {
	f.Add([]byte{2, 1, 3, 3}, []byte{0, 1, 0, 2, 0, 3})
	f.Add(append(bytes.Repeat([]byte{1}, 128), 57), []byte{0, 128})
	f.Add([]byte{1, 2, 21}, []byte{0, 2})
	f.Add([]byte{0, 0, 20}, []byte{0, 2, 0, 2})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 20},
		[]byte{0, 19, 0, 20, 0, 0, 0, 10, 0, 11})
	f.Fuzz(func(t *testing.T, table, msg []byte) {
		if len(table) > 300 {
			return
		}
		lengths := make([]uint8, len(table))
		for i, b := range table {
			lengths[i] = b % 64
		}
		cb, cbErr := NewCodebook(lengths)
		var d Decoder
		if err := d.Reset(lengths, bitio.NewReader(bytes.NewReader(nil))); (err == nil) != (cbErr == nil) {
			t.Fatalf("lengths %v: NewCodebook %v, Decoder.Reset %v", lengths, cbErr, err)
		} else if err != nil {
			return
		}
		var coded []int
		for sym, l := range lengths {
			if l > 0 {
				coded = append(coded, sym)
			}
		}
		var syms []int
		for i := 0; i+1 < len(msg); i += 2 {
			syms = append(syms, coded[(int(msg[i])<<8|int(msg[i+1]))%len(coded)])
		}
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		enc := NewEncoder(cb, bw)
		for _, sym := range syms {
			if err := enc.WriteSymbol(sym); err != nil {
				t.Fatal(err)
			}
		}
		nbits := bw.BitsWritten()
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		br := bitio.NewReader(&buf)
		if err := d.Reset(lengths, br); err != nil {
			t.Fatal(err)
		}
		for i, want := range syms {
			if got, err := d.ReadSymbol(); err != nil || got != want {
				t.Fatalf("lengths %v: symbol %d = %d, %v; want %d", lengths, i, got, err, want)
			}
		}
		if br.BitsRead() != nbits {
			t.Fatalf("lengths %v: decoded %d bits, encoded %d", lengths, br.BitsRead(), nbits)
		}
	})
}

// refBuildLengths is the heap construction that BuildLengths' two queues
// replaced, kept as the reference they are checked against: a binary heap
// of nodes ordered by (frequency, node index), leaves indexed in symbol
// order and merges after them, and a depth-first walk for the lengths.
func refBuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
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
		return nil, errBadLengths
	}
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
	type frame struct{ idx, depth int }
	stack := []frame{{live[0], 0}}
	maxSeen := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.idx]
		if nd.sym >= 0 {
			lengths[nd.sym] = uint8(f.depth)
			maxSeen = max(maxSeen, f.depth)
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	if maxSeen > maxBits {
		limitLengths(freqs, lengths, maxBits)
	}
	return lengths, nil
}

// FuzzBuildLengths checks BuildLengths against refBuildLengths on up to 300
// frequencies: a zero byte is no symbol, a byte below 128 is its own
// frequency (many ties), and a byte b from 128 up is 2^(b%63), which gives
// deep trees for limitLengths and totals that overflow int64. Both give the
// same lengths or both fail; an overflowing total must fail.
func FuzzBuildLengths(f *testing.F) {
	f.Add(uint8(MaxBits), []byte("abracadabra, the quick brown fox"))
	f.Add(uint8(5), []byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1, 1, 1, 1})
	f.Add(uint8(9), []byte{128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141, 142, 143})
	f.Add(uint8(1), []byte{7, 7})
	f.Add(uint8(MaxBits), []byte{188, 188, 1}) // 2^62 + 2^62 + 1 overflows
	f.Fuzz(func(t *testing.T, maxBits uint8, spec []byte) {
		if len(spec) > 300 {
			return
		}
		freqs := make([]int64, len(spec))
		var total int64
		overflow := false
		for i, b := range spec {
			freqs[i] = int64(b)
			if b >= 128 {
				freqs[i] = 1 << (b % 63)
			}
			if freqs[i] > math.MaxInt64-total {
				overflow = true
			}
			total += freqs[i]
		}
		mb := 1 + (int(maxBits)+MaxBits-1)%MaxBits // 1–20 map to themselves
		got, err := BuildLengths(freqs, mb)
		if overflow {
			if err == nil {
				t.Fatalf("frequencies %v overflow int64 but got lengths %v", freqs, got)
			}
			return
		}
		want, wantErr := refBuildLengths(freqs, mb)
		if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
			t.Fatalf("BuildLengths(%v, %d) = %v, %v; reference %v, %v", freqs, mb, got, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if _, err := NewCodebook(got); err != nil {
			t.Fatalf("BuildLengths(%v, %d) = %v, rejected by NewCodebook: %v", freqs, mb, got, err)
		}
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
