package mtf

import (
	"bytes"
	"testing"
	"testing/quick"

	"atc/internal/bwt"
	"atc/internal/bytesort"
	"atc/internal/workload"
)

func TestZeroRunBijectiveBase2(t *testing.T) {
	// Runs of the front symbol of length r must encode to the documented
	// RUNA/RUNB digit strings.
	cases := []struct {
		run  int
		want []uint16
	}{
		{1, []uint16{RunA}},
		{2, []uint16{RunB}},
		{3, []uint16{RunA, RunA}},
		{4, []uint16{RunB, RunA}},
		{5, []uint16{RunA, RunB}},
		{6, []uint16{RunB, RunB}},
		{7, []uint16{RunA, RunA, RunA}},
	}
	for _, c := range cases {
		// A run of byte 0 at stream start MTFs to a zero run of the same length.
		in := bytes.Repeat([]byte{0}, c.run)
		syms := Encode(in)
		want := append(append([]uint16{}, c.want...), EOB)
		if len(syms) != len(want) {
			t.Fatalf("run %d: symbols %v, want %v", c.run, syms, want)
		}
		for i := range want {
			if syms[i] != want[i] {
				t.Fatalf("run %d: symbols %v, want %v", c.run, syms, want)
			}
		}
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	syms := Encode(nil)
	if len(syms) != 1 || syms[0] != EOB {
		t.Fatalf("Encode(nil) = %v, want [EOB]", syms)
	}
	out, n, err := Decode(syms)
	if err != nil || n != 1 || len(out) != 0 {
		t.Fatalf("Decode = %v, %d, %v", out, n, err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		syms := Encode(data)
		out, n, err := Decode(syms)
		if err != nil || n != len(syms) {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStopsAtEOB(t *testing.T) {
	syms := Encode([]byte("hello"))
	// Append trailing garbage; Decode must stop at EOB.
	syms = append(syms, 5, 6, 7)
	out, n, err := Decode(syms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("hello")) {
		t.Fatalf("decoded %q", out)
	}
	if n != len(syms)-3 {
		t.Fatalf("consumed %d symbols, want %d", n, len(syms)-3)
	}
}

func TestDecodeMissingEOB(t *testing.T) {
	if _, _, err := Decode([]uint16{2, 3, 4}); err == nil {
		t.Fatal("missing EOB not detected")
	}
}

func TestDecodeBadSymbol(t *testing.T) {
	if _, _, err := Decode([]uint16{300, EOB}); err == nil {
		t.Fatal("out-of-range symbol not detected")
	}
	var d Decoder
	d.Reset(nil, 10)
	if _, err := d.Put(-1); err == nil {
		t.Fatal("negative symbol not detected")
	}
}

// TestDecoderCounts feeds a Decoder one symbol at a time and checks its
// output and its byte counts, which the inverse BWT starts from.
func TestDecoderCounts(t *testing.T) {
	f := func(data []byte, runs uint8) bool {
		data = append(data, bytes.Repeat(data[:min(len(data), 1)], int(runs))...)
		var d Decoder
		d.Reset(nil, len(data))
		var want [256]int
		for _, b := range data {
			want[b]++
		}
		for i, s := range Encode(data) {
			eob, err := d.Put(int(s))
			if err != nil || eob != (s == EOB) {
				t.Logf("symbol %d (%d): eob %v, err %v", i, s, eob, err)
				return false
			}
		}
		return bytes.Equal(d.Bytes(), data) && *d.Counts() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoLimit decodes streams whose output ends in a literal and
// in a zero run, with limits at and one below the output's length: the
// limit bounds both kinds of symbol.
func TestDecodeIntoLimit(t *testing.T) {
	for _, data := range [][]byte{[]byte("abcabc"), []byte("abccccc")} {
		syms := Encode(data)
		if out, _, err := DecodeIntoLimit(nil, syms, len(data)); err != nil || !bytes.Equal(out, data) {
			t.Errorf("%q at its own length: %q, %v", data, out, err)
		}
		if _, _, err := DecodeIntoLimit(nil, syms, len(data)-1); err == nil {
			t.Errorf("%q decoded within %d bytes", data, len(data)-1)
		}
	}
}

func TestCompressionEffect(t *testing.T) {
	// Highly repetitive data must produce far fewer symbols than bytes.
	in := bytes.Repeat([]byte{'z'}, 10000)
	syms := Encode(in)
	if len(syms) > 30 {
		t.Fatalf("10000-byte run encoded to %d symbols; run coding broken", len(syms))
	}
}

func TestLongRunBoundaries(t *testing.T) {
	for _, n := range []int{255, 256, 257, 1023, 1024, 65535} {
		in := bytes.Repeat([]byte{9}, n)
		out, _, err := Decode(Encode(in))
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("run length %d failed: %v", n, err)
		}
	}
}

// BenchmarkEncode runs Encode on repetitive text and on the BWT of one
// 900 KB bsc block of a cache-filtered 403.gcc trace, where most symbols
// sit deep in the MTF table.
func BenchmarkEncode(b *testing.B) {
	cases := []struct {
		name string
		in   func(b *testing.B) []byte
	}{
		{"text", func(*testing.B) []byte { return bytes.Repeat([]byte("abcabcabd"), 10000) }},
		{"gcc", func(b *testing.B) []byte {
			const n = 900 * 1000
			addrs, err := workload.GenerateFiltered("403.gcc", n/8+1, 1)
			if err != nil {
				b.Fatal(err)
			}
			transformed, _ := bwt.Transform(bytesort.TransformBuffer(addrs, bytesort.Sorted)[:n])
			return transformed
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			data := c.in(b)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				Encode(data)
			}
		})
	}
}
