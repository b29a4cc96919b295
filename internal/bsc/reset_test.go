package bsc

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestReaderReset decodes a sequence of unrelated streams through one
// Reader via Reset and requires byte-identity with fresh-reader decodes —
// no state may leak across streams, including after error and mid-stream
// abandonment.
func TestReaderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, 8)
	for i := range payloads {
		n := rng.Intn(200_000)
		p := make([]byte, n)
		switch i % 3 {
		case 0: // compressible: few distinct values, long runs
			for j := range p {
				p[j] = byte(rng.Intn(4))
			}
		case 1: // incompressible
			rng.Read(p)
		case 2: // structured
			for j := range p {
				p[j] = byte(j >> 6)
			}
		}
		payloads[i] = p
	}
	r := NewReader(nil)
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			comp, err := CompressSize(p, 64<<10)
			if err != nil {
				t.Fatalf("compress %d: %v", i, err)
			}
			if err := r.Reset(bytes.NewReader(comp)); err != nil {
				t.Fatalf("reset: %v", err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("round %d payload %d: read: %v", round, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("round %d payload %d: decode mismatch (%d vs %d bytes)", round, i, len(got), len(p))
			}
		}
		// Abandon a stream halfway; the next Reset must fully recover.
		comp, err := Compress(payloads[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reset(bytes.NewReader(comp)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		if _, err := io.ReadFull(r, buf); err != nil && len(payloads[1]) >= 100 {
			t.Fatalf("partial read: %v", err)
		}
		// Poison with a corrupt stream; Reset must clear the error state.
		if err := r.Reset(bytes.NewReader([]byte("BSC1\x01junk"))); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(r); err == nil {
			t.Fatal("corrupt stream decoded without error")
		}
	}
}

// TestReaderResetAmortisedZeroAlloc pins the point of the reusable state:
// once a Reader has decoded a stream, re-decoding streams of the same
// shape through Reset performs no per-stream allocations.
func TestReaderResetAmortisedZeroAlloc(t *testing.T) {
	p := make([]byte, 150_000)
	for j := range p {
		p[j] = byte(j >> 4)
	}
	comp, err := CompressSize(p, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(nil)
	src := bytes.NewReader(comp)
	out := make([]byte, len(p)+1)
	decode := func() {
		src.Reset(comp)
		if err := r.Reset(src); err != nil {
			t.Fatal(err)
		}
		n, err := io.ReadFull(r, out[:len(p)])
		if err != nil || n != len(p) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if _, err := r.Read(out[len(p):]); err != io.EOF {
			t.Fatalf("expected EOF, got %v", err)
		}
	}
	decode() // warm up the scratch buffers
	if allocs := testing.AllocsPerRun(5, decode); allocs > 1 {
		t.Fatalf("decode through Reset allocates %.0f objects per stream, want ≤1", allocs)
	}
}
