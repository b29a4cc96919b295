package bsc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"atc/internal/bytesort"
	"atc/internal/workload"
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

// writerPayloads are streams for the Writer reuse tests at 64 KiB
// blocks: empty, one block, several blocks with a short last one, one
// exactly full block, and incompressible bytes.
func writerPayloads() [][]byte {
	rng := rand.New(rand.NewSource(2))
	multi := make([]byte, 230_000)
	for j := range multi {
		multi[j] = byte(j >> 6)
	}
	full := make([]byte, 64<<10)
	for j := range full {
		full[j] = byte(rng.Intn(4))
	}
	noise := make([]byte, 70_000)
	rng.Read(noise)
	return [][]byte{nil, []byte("one short block"), multi, full, noise}
}

// TestWriterReset compresses a sequence of unrelated streams through one
// Writer via Reset and requires the bytes of a fresh Writer for each —
// no state may leak across streams, including after a stream abandoned
// mid-block and one whose destination failed.
func TestWriterReset(t *testing.T) {
	payloads := writerPayloads()
	var out bytes.Buffer
	w := NewWriterSize(&out, 64<<10)
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			out.Reset()
			w.Reset(&out)
			if _, err := w.Write(p); err != nil {
				t.Fatalf("round %d payload %d: write: %v", round, i, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("round %d payload %d: close: %v", round, i, err)
			}
			want, err := CompressSize(p, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("round %d payload %d: %d bytes differ from a fresh Writer's %d", round, i, out.Len(), len(want))
			}
		}
		// Abandon a stream mid-block, then fail one at its first block.
		w.Reset(io.Discard)
		if _, err := w.Write(payloads[2][:100_000]); err != nil {
			t.Fatal(err)
		}
		w.Reset(failWriter{})
		if _, err := w.Write(payloads[2]); err == nil {
			t.Fatal("write to a failing destination succeeded")
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriterResetAmortisedZeroAlloc pins the point of the Writer's
// reusable state: once it has compressed a stream, compressing streams
// of the same shape through Reset allocates at most one object each. The
// streams are a pattern in 64 KiB blocks and a 128 Ki-address 403.gcc
// segment as bytesort emits it, a full block and a short one at the
// default block size.
func TestWriterResetAmortisedZeroAlloc(t *testing.T) {
	pattern := make([]byte, 150_000)
	for j := range pattern {
		pattern[j] = byte(j >> 4)
	}
	addrs, err := workload.GenerateFiltered("403.gcc", 128<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var segment bytes.Buffer
	enc := bytesort.NewEncoder(&segment, len(addrs))
	if err := enc.WriteSlice(addrs); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		p         []byte
		blockSize int
	}{
		{"pattern", pattern, 64 << 10},
		{"gcc", segment.Bytes(), DefaultBlockSize},
	} {
		var out bytes.Buffer
		w := NewWriterSize(&out, c.blockSize)
		compress := func() {
			out.Reset()
			w.Reset(&out)
			if _, err := w.Write(c.p); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		compress() // warm up the scratch buffers
		if allocs := testing.AllocsPerRun(3, compress); allocs > 1 {
			t.Fatalf("%s: compress through Reset allocates %.0f objects per stream, want ≤1", c.name, allocs)
		}
	}
}
