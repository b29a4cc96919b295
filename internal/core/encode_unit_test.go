package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"atc/internal/store"
	"atc/internal/workload"
)

// encodeUnitTraces are traces whose chunks exercise every reset of a
// worker's encode unit: bsc streams of two blocks and of one, a short
// final chunk whose bytesort buffer is smaller than the last one's,
// several bytesort segments per chunk, lossy chunks, and the flate back
// end. Each digest is the SHA-256 of the trace's blobs as written before
// encode units were reused (storeDigest); the encoder must keep writing
// those bytes at every worker count.
var encodeUnitTraces = []struct {
	name   string
	model  string
	n      int
	opts   Options
	digest string
}{
	{"gcc-segments", "403.gcc", 300_000, Options{Mode: Lossless, SegmentAddrs: 128 << 10},
		"f0c1516a0deb500a079e7b6e09efe227d54de92e5664edeb4f4684e8bc710267"},
	{"gcc-buffers", "403.gcc", 300_000, Options{Mode: Lossless, SegmentAddrs: 128 << 10, BufferAddrs: 50_000},
		"f22a9eb3cc170bc9bcaeb90ce3fde5ffb247dd60e8646de5bda4dd5ec9122c04"},
	{"mcf-lossy", "429.mcf", 300_000, Options{Mode: Lossy, IntervalLen: 32768},
		"4d4725a9b12ec76e50a41caffff3427403b3480f17b004d0a1d1e572feb31bf7"},
	{"gcc-flate", "403.gcc", 100_000, Options{Mode: Lossless, SegmentAddrs: 32 << 10, Backend: "flate"},
		"bcc02bda7f66dd56c90e4f9917f227d35e3b651e002b9e782f8523737d7fb101"},
}

// TestEncodeUnitsKeepBytes writes each trace with one and two workers and
// compares the digest of all its blobs with the reference.
func TestEncodeUnitsKeepBytes(t *testing.T) {
	for _, tr := range encodeUnitTraces {
		addrs, err := workload.GenerateFiltered(tr.model, tr.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			st := store.NewMem()
			opts := tr.opts
			opts.Store, opts.Workers = st, workers
			if _, err := WriteTrace("", addrs, opts); err != nil {
				t.Fatalf("%s workers=%d: %v", tr.name, workers, err)
			}
			if got := storeDigest(t, st); got != tr.digest {
				t.Errorf("%s workers=%d: blobs digest %s, want %s", tr.name, workers, got, tr.digest)
			}
		}
	}
}

// storeDigest hashes every blob of st, name, length and bytes, in name
// order.
func storeDigest(t *testing.T, st store.Store) string {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		data, err := store.ReadBlob(st, name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
