package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"atc/internal/bsc"
	"atc/internal/store"
)

// goldenDirs are the checked-in traces FuzzOpenDecode rewrites the INFO
// of, one per format: v1 lossless (one stream), v1 lossy (imitations) and
// v2 lossless (segments).
var goldenDirs = []string{"testdata/v1-lossless", "testdata/v1-lossy", "testdata/v2-lossless"}

// FuzzOpenDecode replaces the INFO of a golden trace (which picks the
// trace) with the bsc compression of an arbitrary plaintext info. Open
// must succeed or fail with ErrCorrupt; after it a range over the whole
// trace and then, from a seek back to 0, a full decode must each return
// TotalAddrs() addresses or ErrCorrupt, within 48 MiB of allocation: the
// INFO's counts must never size a buffer the decoded data does not fill.
// When both succeed they must give the same addresses.
func FuzzOpenDecode(f *testing.F) {
	golden := make([]map[string][]byte, len(goldenDirs))
	for i, dir := range goldenDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		golden[i] = map[string][]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			golden[i][e.Name()] = data
		}
		info, err := bsc.Decompress(golden[i]["INFO.bsc"])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), info)
	}
	f.Fuzz(func(t *testing.T, which uint8, info []byte) {
		blob, err := bsc.Compress(info)
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewMem()
		for name, data := range golden[int(which)%len(golden)] {
			if name == "INFO.bsc" {
				data = blob
			}
			if err := store.WriteBlob(st, name, data); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Open("", DecodeOptions{Store: st})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: error without ErrCorrupt: %v", err)
			}
			return
		}
		defer d.Close()
		check := func(what string, decode func() ([]uint64, error)) ([]uint64, bool) {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := decode()
			runtime.ReadMemStats(&after)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error without ErrCorrupt: %v", what, err)
			}
			if err == nil && int64(len(got)) != d.TotalAddrs() {
				t.Fatalf("%s: %d addresses, trailer says %d", what, len(got), d.TotalAddrs())
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 48<<20 {
				t.Fatalf("%s allocated %d MiB, want < 48 MiB", what, alloc>>20)
			}
			return got, err == nil
		}
		rng, rangeOK := check("DecodeRange", func() ([]uint64, error) { return d.DecodeRange(0, d.TotalAddrs()) })
		all, allOK := check("DecodeAll", func() ([]uint64, error) {
			if err := d.SeekTo(0); err != nil {
				return nil, err
			}
			return d.DecodeAll()
		})
		if rangeOK && allOK && !slices.Equal(rng, all) {
			t.Fatal("DecodeRange over the whole trace and DecodeAll both succeed but differ")
		}
	})
}
