package core

// Tests of the one chunk reader: the legacy v1 stream resumes forward
// across range windows, a chunk load never decodes past the index's
// address count, and any chunk blob decodes to the index's count or
// fails with ErrCorrupt.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"atc/internal/bsc"
	"atc/internal/store"
)

// TestLegacyRangeResumesStream checks that range windows over a v1
// trace share one stream while they move forward, and that a backward
// window reopens it.
func TestLegacyRangeResumesStream(t *testing.T) {
	addrs := rangeTrace()
	dir := t.TempDir()
	if _, err := WriteTrace(dir, addrs, Options{Mode: Lossless, BufferAddrs: 200, SegmentAddrs: -1}); err != nil {
		t.Fatal(err)
	}
	want, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	window := func(from, to int64) {
		t.Helper()
		got, err := d.DecodeRange(from, to)
		if err != nil {
			t.Fatalf("DecodeRange(%d, %d): %v", from, to, err)
		}
		if len(got) != int(to-from) {
			t.Fatalf("DecodeRange(%d, %d) returned %d addresses", from, to, len(got))
		}
		for i, v := range got {
			if v != want[from+int64(i)] {
				t.Fatalf("DecodeRange(%d, %d) diverges at %d", from, to, from+int64(i))
			}
		}
	}
	for _, w := range [][2]int64{{0, 100}, {100, 1500}, {2000, 2001}, {5000, 9000}, {9000, 9500}} {
		window(w[0], w[1])
	}
	if n := d.ChunkReads(); n != 1 {
		t.Fatalf("forward windows opened the stream %d times, want 1", n)
	}
	window(3000, 4000)
	if n := d.ChunkReads(); n != 2 {
		t.Fatalf("backward window: %d stream opens, want 2", n)
	}
	// A decode from the cursor takes the parked reader too: DecodeAll from
	// where the last window stopped resumes the stream.
	if err := d.SeekTo(4000); err != nil {
		t.Fatal(err)
	}
	rest, err := d.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(want)-4000 || rest[0] != want[4000] || rest[len(rest)-1] != want[len(want)-1] {
		t.Fatalf("Decode after the windows: %d addresses, want %d", len(rest), len(want)-4000)
	}
	if n := d.ChunkReads(); n != 2 {
		t.Fatalf("Decode resuming the parked stream: %d stream opens, want 2", n)
	}
}

// TestRemoteLegacyWindowsAcrossDroppedConnections packs the golden v1
// trace into an archive behind an HTTP origin that drops every client
// connection between range windows. The forward windows share the parked
// stream and must still match the local decode.
func TestRemoteLegacyWindowsAcrossDroppedConnections(t *testing.T) {
	const golden = "testdata/v1-lossless"
	want, err := ReadTrace(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.atc")
	ar, err := store.CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CopyAll(ar, store.OpenDir(golden)); err != nil {
		t.Fatal(err)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", `"golden-v1"`)
		http.ServeContent(w, r, "v1.atc", time.Time{}, bytes.NewReader(raw))
	}))
	defer srv.Close()
	d, err := Open(srv.URL+"/v1.atc", DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	total := int64(len(want))
	step := total / 6
	for from := int64(0); from < total; from += step {
		to := min(from+step/2, total)
		srv.CloseClientConnections()
		got, err := d.DecodeRange(from, to)
		if err != nil {
			t.Fatalf("DecodeRange(%d, %d): %v", from, to, err)
		}
		if !slices.Equal(got, want[from:to]) {
			t.Fatalf("DecodeRange(%d, %d) diverges from the local decode", from, to)
		}
	}
	if n := d.ChunkReads(); n != 1 {
		t.Fatalf("forward windows opened the stream %d times, want 1", n)
	}
}

// TestChunkLoadBoundedByIndex swaps a 1000-address segment's blob for a
// 34 KB one that decodes to 4 Mi addresses. Loading it must fail at the
// first address past the index's count, not decode (and allocate) the
// whole blob first.
func TestChunkLoadBoundedByIndex(t *testing.T) {
	small := t.TempDir()
	if _, err := WriteTrace(small, rangeTrace()[:1000], Options{
		Mode: Lossless, Backend: "flate", BufferAddrs: 200, SegmentAddrs: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	big := t.TempDir()
	if _, err := WriteTrace(big, make([]uint64, 4<<20), Options{
		Mode: Lossless, Backend: "flate", BufferAddrs: 4096, SegmentAddrs: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(big, "1.flate"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(small, "1.flate"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(small, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = d.DecodeRange(0, 10)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("loading the %d-byte blob allocated %d bytes, want < 4 MiB", len(blob), alloc)
	}
}

// segmentBombBlob is a 182-byte chunk blob: the bsc compression of a
// bytesort segment header claiming 2^27 addresses, then 64 zero bytes.
func segmentBombBlob(t testing.TB) []byte {
	raw := make([]byte, 4+64)
	binary.LittleEndian.PutUint32(raw, 1<<27)
	blob, err := bsc.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChunkSegmentBoundedByIndex puts segmentBombBlob in as chunk 2 of
// the golden segmented trace. The segment header claims far more
// addresses than the index gives the chunk, so a range over it and a
// full decode must each fail with ErrCorrupt before sizing a buffer from
// the header.
func TestChunkSegmentBoundedByIndex(t *testing.T) {
	blob := segmentBombBlob(t)
	if len(blob) != 182 {
		t.Fatalf("blob is %d bytes, want 182", len(blob))
	}
	st := store.NewMem()
	if err := store.CopyAll(st, store.OpenDir("testdata/v2-lossless")); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteBlob(st, "2.bsc", blob); err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"DecodeRange", "DecodeAll"} {
		d, err := Open("", DecodeOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		var sp ChunkSpan
		for _, s := range d.ChunkIndex() {
			if s.ChunkID == 2 {
				sp = s
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if what == "DecodeRange" {
			_, err = d.DecodeRange(sp.Start, sp.End)
		} else {
			_, err = d.DecodeAll()
		}
		runtime.ReadMemStats(&after)
		d.Close()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
			t.Fatalf("%s allocated %d bytes on the %d-byte blob, want < 4 MiB", what, alloc, len(blob))
		}
	}
}

// TestLegacyRangeBoundedByDecodedData writes a 1,000-address v1 trace
// whose INFO trailer then claims 2^27 addresses. A range over the claimed
// trace must fail with ErrCorrupt once the stream ends, having grown its
// buffer only as addresses arrived, not to the trailer's 1 GiB.
func TestLegacyRangeBoundedByDecodedData(t *testing.T) {
	const n, claimed = 1000, 1 << 27
	st := store.NewMem()
	if _, err := WriteTrace("", rangeTrace()[:n], Options{Mode: Lossless, SegmentAddrs: -1,
		Backend: "store", Store: st}); err != nil {
		t.Fatal(err)
	}
	info, err := store.ReadBlob(st, "INFO.store")
	if err != nil {
		t.Fatal(err)
	}
	trailer := append([]byte{recEnd}, binary.AppendUvarint(nil, n)...)
	if !bytes.HasSuffix(info, trailer) {
		t.Fatalf("INFO does not end in the trailer %x", trailer)
	}
	info = append(info[:len(info)-len(trailer)+1], binary.AppendUvarint(nil, claimed)...)
	if err := store.WriteBlob(st, "INFO.store", info); err != nil {
		t.Fatal(err)
	}
	d, err := Open("", DecodeOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.TotalAddrs() != claimed {
		t.Fatalf("TotalAddrs = %d, want the claimed %d", d.TotalAddrs(), claimed)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = d.DecodeRange(0, d.TotalAddrs())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRange over the claimed trace: err = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("DecodeRange allocated %d MiB for %d decoded addresses, want < 64 MiB", alloc>>20, n)
	}
}

// TestRangeAcrossSegmentsAllocation decodes one window over 256 small
// segments into an empty slice. The output must grow by doubling across
// spans, not by each span's remainder (which copies everything decoded
// so far once per span): beyond the chunk decoding that a presized decode
// of the same window also does, it allocates a small multiple of the
// window's bytes.
func TestRangeAcrossSegmentsAllocation(t *testing.T) {
	const segs, seg = 256, 1024
	addrs := make([]uint64, segs*seg)
	for i := range addrs {
		addrs[i] = uint64(i*7919%4096) << 6
	}
	st := store.NewMem()
	if _, err := WriteTrace("", addrs, Options{Mode: Lossless, SegmentAddrs: seg,
		BufferAddrs: seg, Backend: "flate", Store: st}); err != nil {
		t.Fatal(err)
	}
	decode := func(dst []uint64) uint64 {
		d, err := Open("", DecodeOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := d.DecodeRangeAppend(dst, 0, d.TotalAddrs())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, addrs) {
			t.Fatal("range over the whole trace differs from the input")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	presized := decode(make([]uint64, 0, len(addrs)))
	grown := decode([]uint64{})
	window := uint64(len(addrs) * 8)
	if grown >= presized+8*window {
		t.Fatalf("a range into an empty slice allocated %d KiB, into a presized one %d KiB: "+
			"growth took 8x or more of the %d KiB window", grown>>10, presized>>10, window>>10)
	}
}

// FuzzChunkBlob replaces chunk 2 of the golden segmented trace with
// arbitrary bytes: a range over its span and a full decode must each
// return the index's address count or an error wrapping ErrCorrupt.
func FuzzChunkBlob(f *testing.F) {
	const golden = "testdata/v2-lossless"
	entries, err := os.ReadDir(golden)
	if err != nil {
		f.Fatal(err)
	}
	blobs := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		blobs[e.Name()] = data
		if strings.HasSuffix(e.Name(), ".bsc") {
			f.Add(data)
		}
	}
	open := func(t *testing.T, chunk2 []byte) *Decompressor {
		st := store.NewMem()
		for name, data := range blobs {
			if name == "2.bsc" {
				data = chunk2
			}
			if err := store.WriteBlob(st, name, data); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Open("", DecodeOptions{Store: st})
		if err != nil {
			t.Fatalf("Open with an intact INFO: %v", err)
		}
		return d
	}
	check := func(t *testing.T, what string, got []uint64, err error, want int64) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error without ErrCorrupt: %v", what, err)
		}
		if err == nil && int64(len(got)) != want {
			t.Fatalf("%s: %d addresses, index says %d", what, len(got), want)
		}
	}
	f.Fuzz(func(t *testing.T, chunk2 []byte) {
		d := open(t, chunk2)
		defer d.Close()
		var sp ChunkSpan
		for _, s := range d.ChunkIndex() {
			if s.ChunkID == 2 {
				sp = s
			}
		}
		got, err := d.DecodeRange(sp.Start, sp.End)
		check(t, "DecodeRange", got, err, sp.End-sp.Start)

		full := open(t, chunk2)
		defer full.Close()
		got, err = full.DecodeAll()
		check(t, "DecodeAll", got, err, full.TotalAddrs())
	})
}
