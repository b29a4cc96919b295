package bytesort

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestEncoderReset encodes a sequence of streams through one Encoder via
// Reset, at buffer sizes that shrink and grow, and requires the bytes of
// a fresh Encoder for each — including after a stream abandoned with
// addresses buffered and one whose destination failed.
func TestEncoderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 5000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<20)) << 6
	}
	var out bytes.Buffer
	e := NewEncoder(&out, 1000)
	for round := 0; round < 2; round++ {
		for _, c := range []struct{ n, bufAddrs int }{
			{5000, 1000}, {5000, 300}, {0, 300}, {2500, 5000}, {5000, 2000}, {17, 0},
		} {
			out.Reset()
			e.Reset(&out, c.bufAddrs)
			if err := e.WriteSlice(addrs[:c.n]); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if want := encodeStream(t, addrs[:c.n], c.bufAddrs); !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("round %d, %d addresses in %d-address buffers: %d bytes differ from a fresh Encoder's %d",
					round, c.n, c.bufAddrs, out.Len(), len(want))
			}
		}
		// Abandon a stream with addresses buffered, then fail one.
		e.Reset(&out, 1000)
		if err := e.WriteSlice(addrs[:1500]); err != nil {
			t.Fatal(err)
		}
		e.Reset(failWriter{}, 1000)
		if err := e.WriteSlice(addrs); err == nil {
			t.Fatal("write to a failing destination succeeded")
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestEncoderResetAmortisedZeroAlloc: once an Encoder has seen its
// largest buffer, encoding streams through Reset, at that buffer size or
// a smaller one, allocates at most one object each.
func TestEncoderResetAmortisedZeroAlloc(t *testing.T) {
	addrs := make([]uint64, 10_000)
	for i := range addrs {
		addrs[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var out bytes.Buffer
	e := NewEncoder(&out, 4096)
	for _, bufAddrs := range []int{4096, 1000} {
		encode := func() {
			out.Reset()
			e.Reset(&out, bufAddrs)
			if err := e.WriteSlice(addrs); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
		encode() // warm up
		if allocs := testing.AllocsPerRun(5, encode); allocs > 1 {
			t.Fatalf("%d-address buffers: encode through Reset allocates %.0f objects per stream, want ≤1", bufAddrs, allocs)
		}
	}
}
