package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// eachStore runs a subtest against a freshly created store of every kind.
// reopen converts a written store into its read form (a fresh handle for
// archives, the same value otherwise).
func eachStore(t *testing.T, fn func(t *testing.T, create func() Store, reopen func(Store) Store)) {
	t.Helper()
	t.Run("dir", func(t *testing.T) {
		fn(t, func() Store {
			s, err := CreateDir(filepath.Join(t.TempDir(), "trace"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(s Store) Store { return s })
	})
	t.Run("mem", func(t *testing.T) {
		fn(t, func() Store { return NewMem() }, func(s Store) Store { return s })
	})
	t.Run("archive", func(t *testing.T) {
		fn(t, func() Store {
			s, err := CreateArchive(filepath.Join(t.TempDir(), "trace.atc"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(s Store) Store {
			r, err := OpenArchive(s.(*ArchiveStore).Path())
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
	})
}

func TestStoreRoundTrip(t *testing.T) {
	blobs := map[string][]byte{
		"MANIFEST": []byte("atc 1\nmode lossless\nbackend store\n"),
		"INFO.bsc": bytes.Repeat([]byte{0xAB, 0x00, 0x17}, 1000),
		"1.bsc":    {},
		"2.bsc":    bytes.Repeat([]byte("chunk two "), 123),
	}
	eachStore(t, func(t *testing.T, create func() Store, reopen func(Store) Store) {
		s := create()
		for name, data := range blobs {
			if err := WriteBlob(s, name, data); err != nil {
				t.Fatalf("write %s: %v", name, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		r := reopen(s)
		names, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		if len(names) != len(blobs) {
			t.Fatalf("List = %v, want %d names", names, len(blobs))
		}
		var payload int64
		for name, want := range blobs {
			got, err := ReadBlob(r, name)
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("blob %s: got %d bytes, want %d", name, len(got), len(want))
			}
			b, err := r.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			if b.Size() != int64(len(want)) {
				t.Fatalf("blob %s: Size = %d, want %d", name, b.Size(), len(want))
			}
			b.Close()
			payload += int64(len(want))
		}
		size, err := r.Size()
		if err != nil {
			t.Fatal(err)
		}
		if size < payload {
			t.Fatalf("Size = %d < summed payloads %d", size, payload)
		}
		if _, err := r.Open("no-such-blob"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Open missing = %v, want fs.ErrNotExist", err)
		}
	})
}

func TestStoreRejectsBadNames(t *testing.T) {
	eachStore(t, func(t *testing.T, create func() Store, _ func(Store) Store) {
		s := create()
		for _, name := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
			if _, err := s.Create(name); err == nil {
				t.Fatalf("Create(%q) succeeded", name)
			}
			if _, err := s.Open(name); err == nil {
				t.Fatalf("Open(%q) succeeded", name)
			}
		}
	})
}

func TestStoreRemove(t *testing.T) {
	eachStore(t, func(t *testing.T, create func() Store, _ func(Store) Store) {
		s := create()
		if err := WriteBlob(s, "a", []byte("aaa")); err != nil {
			t.Fatal(err)
		}
		if err := WriteBlob(s, "b", []byte("bbb")); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("b"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open("b"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Open removed blob = %v, want fs.ErrNotExist", err)
		}
		if err := s.Remove("b"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Remove missing = %v, want fs.ErrNotExist", err)
		}
		if got, err := ReadBlob(s, "a"); err != nil || string(got) != "aaa" {
			t.Fatalf("blob a after Remove(b): %q, %v", got, err)
		}
	})
}

func TestArchiveRemoveReclaimsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.atc")
	s, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "keep", bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "tail", bytes.Repeat([]byte("y"), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("tail"); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "next", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 300 {
		t.Fatalf("archive is %d bytes; removing the tail blob did not reclaim its space", fi.Size())
	}
	r, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := ReadBlob(r, "keep"); err != nil || len(got) != 100 {
		t.Fatalf("keep after tail reclaim: %d bytes, %v", len(got), err)
	}
	if got, err := ReadBlob(r, "next"); err != nil || string(got) != "z" {
		t.Fatalf("next after tail reclaim: %q, %v", got, err)
	}
}

func TestArchiveRefusesDuplicateBlob(t *testing.T) {
	s, err := CreateArchive(filepath.Join(t.TempDir(), "t.atc"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := WriteBlob(s, "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "a", []byte("two")); err == nil {
		t.Fatal("duplicate blob accepted")
	}
}

func TestArchiveRefusesNonEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.atc")
	if err := os.WriteFile(path, []byte("precious user data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateArchive(path); err == nil {
		t.Fatal("CreateArchive over a non-empty file succeeded")
	}
	// The refused file is untouched.
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "precious user data" {
		t.Fatalf("existing file was modified: %q, %v", data, err)
	}
}

func TestArchiveAdoptsEmptyFile(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "t-*.atc")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Name()
	f.Close()
	s, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := ReadBlob(r, "a"); string(got) != "data" {
		t.Fatalf("blob = %q", got)
	}
}

func TestArchiveAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.atc")
	s, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlob(s, "a", []byte("half-written")); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Abort left the archive file behind (stat err = %v)", err)
	}
}

// writeTestArchive builds a small valid archive and returns its bytes.
func writeTestArchive(t *testing.T, blobs map[string][]byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.atc")
	s, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := WriteBlob(s, name, blobs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testBlobs() map[string][]byte {
	return map[string][]byte{
		"MANIFEST": []byte("atc 1\nmode lossless\nbackend store\n"),
		"1.store":  bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		"INFO.bsc": []byte("metadata"),
	}
}

// openBytes parses archive bytes through the same validated path
// OpenArchive uses.
func openBytes(data []byte) (*ArchiveStore, error) {
	return OpenArchiveReaderAt(bytes.NewReader(data), int64(len(data)))
}

// --- corrupt-archive hardening (satellite task) -------------------------
//
// Every mutation below must fail with an ErrCorrupt-wrapped error — never
// a panic, never a silent mis-read.

func TestArchiveCorruptTruncations(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	// Every strict prefix of the archive is corrupt: the footer either
	// disappears, lands on payload bytes, or points past the file.
	for _, n := range []int{0, 1, archiveHeaderLen - 1, archiveHeaderLen,
		len(data) / 2, len(data) - archiveFooterLen, len(data) - 1} {
		if _, err := openBytes(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestArchiveCorruptTruncatedTOC(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	// Snip bytes out of the middle of the TOC while keeping the footer:
	// the TOC extent no longer matches the file size.
	cut := append([]byte{}, data[:len(data)-archiveFooterLen-4]...)
	cut = append(cut, data[len(data)-archiveFooterLen:]...)
	if _, err := openBytes(cut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptBadMagic(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	bad := append([]byte{}, data...)
	copy(bad, "NOPE")
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header magic: err = %v, want ErrCorrupt", err)
	}
	bad = append([]byte{}, data...)
	copy(bad[len(bad)-4:], "NOPE")
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("footer magic: err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptUnsupportedVersion(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	bad := append([]byte{}, data...)
	bad[4] = 99
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptTOCChecksum(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	// Flip one byte inside the TOC without fixing the footer CRC.
	bad := append([]byte{}, data...)
	bad[len(bad)-archiveFooterLen-1] ^= 0xFF
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptBlobCRC(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	// Flip a payload byte of blob "1.store" (offset region, after the
	// header). The TOC still validates — only the full sequential read of
	// that blob must fail.
	bad := append([]byte{}, data...)
	bad[archiveHeaderLen+len(testBlobs()["MANIFEST"])+10] ^= 0xFF
	s, err := openBytes(bad)
	if err != nil {
		t.Fatalf("corrupt payload must not fail open (TOC is intact): %v", err)
	}
	sawCorrupt := false
	for _, name := range []string{"MANIFEST", "1.store", "INFO.bsc"} {
		if _, err := ReadBlob(s, name); errors.Is(err, ErrCorrupt) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("bit-rotted payload read back without a CRC error")
	}
}

// rewriteTOC rebuilds an archive's TOC and footer from the given entries,
// with self-consistent checksums, so extent-level corruption (overlap,
// out of bounds) is the only thing wrong with the result.
func rewriteTOC(t *testing.T, data []byte, entries []tocEntry) []byte {
	t.Helper()
	footer := data[len(data)-archiveFooterLen:]
	tocOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	s := &ArchiveStore{entries: entries}
	toc := s.encodeTOC()
	out := append([]byte{}, data[:tocOff]...)
	out = append(out, toc...)
	var newFooter [archiveFooterLen]byte
	binary.LittleEndian.PutUint64(newFooter[0:8], uint64(tocOff))
	binary.LittleEndian.PutUint32(newFooter[8:12], uint32(len(toc)))
	binary.LittleEndian.PutUint32(newFooter[12:16], crc32.ChecksumIEEE(toc))
	copy(newFooter[16:20], archiveEndMagic)
	return append(out, newFooter[:]...)
}

func TestArchiveCorruptOverlappingExtents(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	s, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	entries := append([]tocEntry{}, s.entries...)
	// Make the second blob start inside the first.
	entries[1].off = entries[0].off + 1
	entries[1].length = entries[0].length
	bad := rewriteTOC(t, data, entries)
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlap: err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptOutOfBoundsExtents(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	s, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(e *tocEntry){
		func(e *tocEntry) { e.length = 1 << 40 },               // runs past the TOC
		func(e *tocEntry) { e.off = int64(len(data)) * 2 },     // starts past EOF
		func(e *tocEntry) { e.off = 0 },                        // inside the header
		func(e *tocEntry) { e.off = -1 },                       // encodes as 2^64-1: wraps
		func(e *tocEntry) { e.off = 1<<63 - 1; e.length = 10 }, // off+len overflows int64
	} {
		entries := append([]tocEntry{}, s.entries...)
		mutate(&entries[0])
		bad := rewriteTOC(t, data, entries)
		if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("out-of-bounds extent: err = %v, want ErrCorrupt", err)
		}
	}
}

func TestArchiveCorruptDuplicateNames(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	s, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	entries := append([]tocEntry{}, s.entries...)
	entries[1].name = entries[0].name
	bad := rewriteTOC(t, data, entries)
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate names: err = %v, want ErrCorrupt", err)
	}
}

func TestArchiveCorruptTraversalNames(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	s, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../../etc/passwd", "a/b", ""} {
		entries := append([]tocEntry{}, s.entries...)
		entries[0].name = name
		bad := rewriteTOC(t, data, entries)
		if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("name %q: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestArchiveCorruptImplausibleCount(t *testing.T) {
	data := writeTestArchive(t, testBlobs())
	footer := data[len(data)-archiveFooterLen:]
	tocOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	// A TOC that is just a huge count varint: must be rejected by the
	// count bound, not by attempting a huge allocation.
	var toc [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(toc[:], 1<<60)
	bad := append([]byte{}, data[:tocOff]...)
	bad = append(bad, toc[:n]...)
	var newFooter [archiveFooterLen]byte
	binary.LittleEndian.PutUint64(newFooter[0:8], uint64(tocOff))
	binary.LittleEndian.PutUint32(newFooter[8:12], uint32(n))
	binary.LittleEndian.PutUint32(newFooter[12:16], crc32.ChecksumIEEE(toc[:n]))
	copy(newFooter[16:20], archiveEndMagic)
	bad = append(bad, newFooter[:]...)
	if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCopyAllAndEqual(t *testing.T) {
	src := NewMem()
	for i := 0; i < 10; i++ {
		if err := WriteBlob(src, fmt.Sprintf("%d.bsc", i), bytes.Repeat([]byte{byte(i)}, i*100)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "copy.atc")
	dst, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CopyAll(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	equal, err := Equal(src, r)
	if err != nil {
		t.Fatal(err)
	}
	if !equal {
		t.Fatal("archive copy does not Equal its source")
	}
	// List order survives the copy (decode readahead relies on stable
	// chunk naming, not order, but tooling output should be stable).
	srcNames, _ := src.List()
	dstNames, _ := r.List()
	if fmt.Sprint(srcNames) != fmt.Sprint(dstNames) {
		t.Fatalf("List order changed: %v vs %v", srcNames, dstNames)
	}
}

func TestArchiveBlobReaderAtConcurrent(t *testing.T) {
	blobs := map[string][]byte{}
	for i := 0; i < 8; i++ {
		blobs[fmt.Sprintf("%d.bin", i)] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
	}
	data := writeTestArchive(t, blobs)
	s, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			name := fmt.Sprintf("%d.bin", i)
			b, err := s.Open(name)
			if err != nil {
				done <- err
				return
			}
			defer b.Close()
			got, err := io.ReadAll(b)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, blobs[name]) {
				done <- fmt.Errorf("blob %s mismatch", name)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestArchiveSpillLargeBlobs forces the spill-to-temp path and pins its
// one observable guarantee: an archive written through spilled blobs is
// byte-identical to one written fully in memory, and reads back clean
// (payload CRCs included).
func TestArchiveSpillLargeBlobs(t *testing.T) {
	old := SpillThreshold
	defer func() { SpillThreshold = old }()

	blobs := map[string][]byte{
		"small":    []byte("tiny payload"),
		"exact":    bytes.Repeat([]byte{0xAB}, 64),
		"big":      bytes.Repeat([]byte("spill me "), 400), // 3600 B, far past the test threshold
		"MANIFEST": []byte("atc 1\nmode lossless\nbackend store\n"),
	}
	writeArchive := func(threshold int64) string {
		t.Helper()
		SpillThreshold = threshold
		path := filepath.Join(t.TempDir(), "spill.atc")
		s, err := CreateArchive(path)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic append order, with the big blob written through
		// many small Writes so the spill happens mid-blob.
		for _, name := range []string{"small", "exact", "big", "MANIFEST"} {
			w, err := s.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			data := blobs[name]
			for len(data) > 0 {
				k := 100
				if k > len(data) {
					k = len(data)
				}
				if _, err := w.Write(data[:k]); err != nil {
					t.Fatal(err)
				}
				data = data[k:]
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	unspilled := writeArchive(1 << 30) // everything in memory
	spilled := writeArchive(64)        // "exact" sits at the bound; "big" spills

	a, err := os.ReadFile(unspilled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("spilled archive differs from in-memory archive (%d vs %d bytes)", len(b), len(a))
	}

	s, err := OpenArchive(spilled)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, want := range blobs {
		got, err := ReadBlob(s, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read back %d bytes, want %d", name, len(got), len(want))
		}
	}
}

// TestArchiveSpillConcurrentWriters exercises spilling from many
// goroutines at once — the chunk-compression worker-pool pattern.
func TestArchiveSpillConcurrentWriters(t *testing.T) {
	old := SpillThreshold
	SpillThreshold = 128
	defer func() { SpillThreshold = old }()

	path := filepath.Join(t.TempDir(), "conc.atc")
	s, err := CreateArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	errc := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			w, err := s.Create(fmt.Sprintf("blob-%d", i))
			if err != nil {
				errc <- err
				return
			}
			payload := bytes.Repeat([]byte{byte(i)}, 1000+i*137)
			if _, err := w.Write(payload); err != nil {
				errc <- err
				return
			}
			errc <- w.Close()
		}(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < writers; i++ {
		got, err := ReadBlob(r, fmt.Sprintf("blob-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 1000+i*137)
		if !bytes.Equal(got, want) {
			t.Fatalf("blob-%d corrupted (%d bytes, want %d)", i, len(got), len(want))
		}
	}
}
