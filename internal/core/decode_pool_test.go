package core

// Tests of imitation windows on the copy-out decode path: DecodeRange
// over imitation records translates only the window's addresses, in
// place in the caller's buffer, and must reproduce the full decode.

import (
	"path/filepath"
	"testing"
)

func TestDecodeRangePoolsImitationBuffers(t *testing.T) {
	const (
		intervalLen = 2000
		imitations  = 3
		distinct    = 4
	)
	addrs := mixedLossyTrace(intervalLen, imitations, distinct)
	path := filepath.Join(t.TempDir(), "trace")
	st, err := WriteTrace(path, addrs, Options{Mode: Lossy, IntervalLen: intervalLen, BufferAddrs: 400})
	if err != nil {
		t.Fatal(err)
	}
	if st.Imitations != imitations {
		t.Fatalf("trace has %d imitations, want %d", st.Imitations, imitations)
	}
	d, err := Open(path, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The full decoded trace is the reference; in lossy mode DecodeRange
	// must reproduce its own full decode, not the raw input.
	want, err := d.DecodeRange(0, int64(len(addrs)))
	if err != nil {
		t.Fatal(err)
	}
	// Intervals 1..imitations are imitation records; range-decode across
	// them repeatedly and verify the values.
	for pass := 0; pass < 4; pass++ {
		from := int64(intervalLen / 2)
		to := int64(intervalLen * (imitations + 1))
		got, err := d.DecodeRange(from, to)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != want[from+int64(i)] {
				t.Fatalf("pass %d: addr %d = %#x, want %#x", pass, from+int64(i), v, want[from+int64(i)])
			}
		}
	}
	// Translating imitation windows must not corrupt the cached source
	// chunk: a later decode of a chunk interval still matches.
	got, err := d.DecodeRange(0, intervalLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("chunk interval addr %d = %#x, want %#x after imitation windows", i, v, want[i])
		}
	}
}
