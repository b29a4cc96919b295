package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

// ArchiveStore packs a whole compressed trace into one seekable .atc file:
//
//	header   8 bytes: magic "ATCA", format version, 3 reserved zero bytes
//	blobs    payloads back to back, in blob Close order
//	TOC      uvarint blob count, then per blob: uvarint name length, name,
//	         uvarint payload offset, uvarint payload length, 4-byte
//	         little-endian CRC32 (IEEE) of the payload
//	footer   20 bytes: u64 LE TOC offset, u32 LE TOC length, u32 LE CRC32
//	         of the TOC bytes, end magic "atcE"
//
// The trailing table of contents makes the file append-friendly to write
// and one-seek cheap to open: read the fixed-size footer, read the TOC,
// and every blob is addressable through io.ReaderAt with no per-blob
// open(2) — exactly what the segmented-lossless readahead fan-out needs.
//
// Write phase: Create returns a writer that buffers its blob in memory and
// appends it to the file under the store lock on Close, so the
// chunk-compression worker pool can build many blobs concurrently while
// the file itself only ever grows by whole blobs. Close writes the TOC and
// footer; an archive without them does not open.
//
// Read phase: OpenArchive parses and fully validates the TOC up front
// (bounds, overlaps, duplicate names, TOC checksum) and serves each Open
// as an independent io.SectionReader, safe for concurrent use. A blob read
// to its end additionally has its payload CRC verified.
type ArchiveStore struct {
	path string

	mu        sync.Mutex
	f         *os.File
	off       int64 // write phase: next payload offset
	entries   []tocEntry
	index     map[string]int
	writing   bool
	finalized bool

	// read phase
	r     io.ReaderAt
	rsize int64
	rc    io.Closer
}

// Archive format constants. The archive format version is independent of
// the trace format version in MANIFEST/INFO: the container can evolve
// without touching the trace encoding, and vice versa.
const (
	archiveMagic    = "ATCA"
	archiveEndMagic = "atcE"
	archiveVersion  = 1

	archiveHeaderLen = 8
	archiveFooterLen = 20

	// maxArchiveBlobs bounds the TOC count field before it sizes an
	// allocation; a corrupt count must not demand memory up front. The TOC
	// length itself re-bounds it (every entry takes ≥ 8 encoded bytes;
	// parseTOC divides by that minimum).
	maxArchiveBlobs = 1 << 24
)

type tocEntry struct {
	name   string
	off    int64
	length int64
	crc    uint32
}

// CreateArchive starts a new single-file archive at path. An existing
// non-empty file is refused, mirroring Create's "already contains a
// compressed trace" check for directories; an existing empty file (e.g.
// from os.CreateTemp) is adopted.
func CreateArchive(path string) (*ArchiveStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atc: create archive: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("atc: create archive: %w", err)
	}
	if fi.Size() > 0 {
		f.Close()
		return nil, fmt.Errorf("atc: %s already contains data", path)
	}
	var hdr [archiveHeaderLen]byte
	copy(hdr[:], archiveMagic)
	hdr[4] = archiveVersion
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("atc: create archive: %w", err)
	}
	return &ArchiveStore{
		path:    path,
		f:       f,
		off:     archiveHeaderLen,
		index:   map[string]int{},
		writing: true,
	}, nil
}

// Path reports the backing file path.
func (s *ArchiveStore) Path() string { return s.path }

// SpillThreshold is the in-memory cap per in-flight archive blob: a blob
// growing past it is spilled to an anonymous temp file while it is being
// written, so archiving a trace with a huge chunk (a legacy v1 lossless
// stream holds the whole compressed trace in one blob) costs bounded RAM
// instead of the full compressed size per concurrent writer. It is a
// variable so tests can force tiny spills; writers snapshot it at Create.
var SpillThreshold int64 = 8 << 20

// Create implements Store. The returned writer buffers the blob — in
// memory up to SpillThreshold, then in a temp file — and appends it to
// the archive when closed; until then the archive is unchanged, so a
// failed blob leaves no partial bytes behind.
func (s *ArchiveStore) Create(name string) (io.WriteCloser, error) {
	if !validName(name) {
		return nil, errBadName(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.writing || s.finalized {
		return nil, fmt.Errorf("atc: archive %s is not open for writing", s.path)
	}
	if _, dup := s.index[name]; dup {
		return nil, fmt.Errorf("atc: archive blob %q already exists", name)
	}
	return &archiveWriter{s: s, name: name, spillAt: SpillThreshold}, nil
}

// archiveWriter accumulates one blob. Small blobs stay in buf; once n
// crosses spillAt the accumulated bytes move to a temp file and all
// further writes go there. The running CRC32 covers both paths, so Close
// never has to re-read the payload to checksum it.
type archiveWriter struct {
	s       *ArchiveStore
	name    string
	buf     bytes.Buffer
	spill   *os.File // non-nil once the blob exceeded spillAt
	spillAt int64
	crc     uint32
	n       int64
	closed  bool
}

func (w *archiveWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	if w.spill == nil && w.n+int64(len(p)) > w.spillAt {
		f, err := os.CreateTemp("", "atc-blob-*")
		if err != nil {
			return 0, fmt.Errorf("atc: archive blob spill: %w", err)
		}
		// Unlink immediately: the kernel reclaims the space when the file
		// closes, so an abandoned writer cannot leak a temp file.
		os.Remove(f.Name())
		if _, err := f.Write(w.buf.Bytes()); err != nil {
			f.Close()
			return 0, fmt.Errorf("atc: archive blob spill: %w", err)
		}
		w.spill = f
		w.buf = bytes.Buffer{}
	}
	var n int
	var err error
	if w.spill != nil {
		n, err = w.spill.Write(p)
	} else {
		n, err = w.buf.Write(p)
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	w.n += int64(n)
	return n, err
}

func (w *archiveWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.spill != nil {
		defer w.spill.Close() // already unlinked; Close reclaims the space
	}
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.writing || s.finalized {
		return fmt.Errorf("atc: archive %s closed before blob %q", s.path, w.name)
	}
	if _, dup := s.index[w.name]; dup {
		return fmt.Errorf("atc: archive blob %q already exists", w.name)
	}
	if w.spill != nil {
		if _, err := w.spill.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("atc: archive write: %w", err)
		}
		copied, err := io.Copy(io.NewOffsetWriter(s.f, s.off), w.spill)
		if err != nil {
			return fmt.Errorf("atc: archive write: %w", err)
		}
		if copied != w.n {
			return fmt.Errorf("atc: archive write: spilled blob %q is %d bytes, wrote %d", w.name, w.n, copied)
		}
	} else if _, err := s.f.WriteAt(w.buf.Bytes(), s.off); err != nil {
		return fmt.Errorf("atc: archive write: %w", err)
	}
	s.index[w.name] = len(s.entries)
	s.entries = append(s.entries, tocEntry{
		name:   w.name,
		off:    s.off,
		length: w.n,
		crc:    w.crc,
	})
	s.off += w.n
	return nil
}

// Open implements Store. During the read phase each call returns an
// independent section of the shared io.ReaderAt (concurrent-safe); during
// the write phase committed blobs are readable back from the file, which
// lets the trace's own writer check for a pre-existing MANIFEST.
func (s *ArchiveStore) Open(name string) (Blob, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	r := s.r // both fixed when the store was created or opened
	if s.writing {
		r = s.f
	}
	return &archiveBlob{r: io.NopCloser(io.NewSectionReader(r, e.off, e.length)), size: e.length, want: e.crc}, nil
}

// entry looks up a blob's TOC record by name.
func (s *ArchiveStore) entry(name string) (tocEntry, error) {
	if !validName(name) {
		return tocEntry{}, errBadName(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[name]
	if !ok {
		return tocEntry{}, notExist(name)
	}
	return s.entries[i], nil
}

// archiveBlob reads one blob's payload from r, a local section or a
// remote extent stream. Reads feed a running CRC32; when the final byte
// has been consumed the checksum is verified, so a full read of a
// bit-rotted payload fails with ErrCorrupt instead of silently handing
// corrupt bytes to the decoder.
type archiveBlob struct {
	r       io.ReadCloser
	size    int64
	want    uint32
	crc     uint32
	read    int64
	checked bool
}

func (b *archiveBlob) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if n > 0 {
		b.crc = crc32.Update(b.crc, crc32.IEEETable, p[:n])
		b.read += int64(n)
	}
	if b.read == b.size && !b.checked {
		b.checked = true
		if b.crc != b.want {
			return n, fmt.Errorf("%w: blob CRC mismatch (have %08x, want %08x)", ErrCorrupt, b.crc, b.want)
		}
	}
	return n, err
}

func (b *archiveBlob) Size() int64 { return b.size }

func (b *archiveBlob) Close() error { return b.r.Close() }

// List implements Store: blob names in archive (TOC) order.
func (s *ArchiveStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.entries))
	for i, e := range s.entries {
		names[i] = e.name
	}
	return names, nil
}

// Size implements Store: the archive file size — header, payloads and TOC
// all count toward bits per address, keeping the metric honest about
// container overhead.
func (s *ArchiveStore) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.writing {
		return s.rsize, nil
	}
	// Write phase: payload so far plus the TOC and footer this archive
	// would close with now.
	return s.off + int64(len(s.encodeTOC())) + archiveFooterLen, nil
}

// Remove implements Store (write phase only). The payload bytes of a
// removed blob become dead space unless it was the most recently appended
// blob, in which case the tail is reclaimed.
func (s *ArchiveStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.writing || s.finalized {
		return fmt.Errorf("atc: archive %s is not open for writing", s.path)
	}
	i, ok := s.index[name]
	if !ok {
		return notExist(name)
	}
	e := s.entries[i]
	if e.off+e.length == s.off {
		s.off = e.off
	}
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	delete(s.index, name)
	for n, j := range s.index {
		if j > i {
			s.index[n] = j - 1
		}
	}
	return nil
}

// encodeTOC serializes the table of contents; callers hold s.mu.
func (s *ArchiveStore) encodeTOC() []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	put(uint64(len(s.entries)))
	for _, e := range s.entries {
		put(uint64(len(e.name)))
		buf.WriteString(e.name)
		put(uint64(e.off))
		put(uint64(e.length))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], e.crc)
		buf.Write(crc[:])
	}
	return buf.Bytes()
}

// Close implements Store. For a written archive it appends the TOC and
// footer — the step that makes the file openable — and closes it; for a
// read archive it releases the underlying file.
func (s *ArchiveStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil
	}
	s.finalized = true
	if !s.writing {
		if s.rc != nil {
			return s.rc.Close()
		}
		return nil
	}
	// A failed finalize leaves a file with no footer — dead weight that
	// neither opens nor can be re-created over ("already contains data")
	// — so every error path below removes it, like Abort would have.
	fail := func(op string, err error) error {
		s.f.Close()
		os.Remove(s.path)
		return fmt.Errorf("atc: archive %s: %w", op, err)
	}
	// A Remove of the tail blob rolls s.off back but leaves its payload
	// bytes in the file; truncate so the footer lands exactly at EOF (the
	// opener requires it).
	if err := s.f.Truncate(s.off); err != nil {
		return fail("truncate", err)
	}
	toc := s.encodeTOC()
	var footer [archiveFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(s.off))
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(toc)))
	binary.LittleEndian.PutUint32(footer[12:16], crc32.ChecksumIEEE(toc))
	copy(footer[16:20], archiveEndMagic)
	if _, err := s.f.WriteAt(toc, s.off); err != nil {
		return fail("TOC write", err)
	}
	if _, err := s.f.WriteAt(footer[:], s.off+int64(len(toc))); err != nil {
		return fail("footer write", err)
	}
	if err := s.f.Close(); err != nil {
		os.Remove(s.path)
		return fmt.Errorf("atc: archive close: %w", err)
	}
	return nil
}

// Abort discards a half-written archive: the file is closed and removed.
func (s *ArchiveStore) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writing && !s.finalized {
		s.finalized = true
		s.f.Close()
		os.Remove(s.path)
	}
}

// OpenArchive opens a single-file archive for reading and validates its
// table of contents.
func OpenArchive(path string) (*ArchiveStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: missing archive: %v", ErrCorrupt, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("atc: open archive: %w", err)
	}
	s, err := OpenArchiveReaderAt(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.path = path
	s.rc = f
	return s, nil
}

// OpenArchiveReaderAt opens an archive held behind any random-access
// reader — a file, an mmap, a byte slice, a blob-store range reader. The
// whole TOC is validated before the store is returned: every later
// per-blob failure mode (out of bounds, overlap, duplicate) is rejected
// here, with ErrCorrupt, so decode goroutines can trust the extents.
func OpenArchiveReaderAt(r io.ReaderAt, size int64) (*ArchiveStore, error) {
	if size < archiveHeaderLen+archiveFooterLen {
		return nil, fmt.Errorf("%w: archive truncated (%d bytes)", ErrCorrupt, size)
	}
	var hdr [archiveHeaderLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: archive header unreadable: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != archiveMagic {
		return nil, fmt.Errorf("%w: not an atc archive (bad magic)", ErrCorrupt)
	}
	if hdr[4] != archiveVersion {
		return nil, fmt.Errorf("%w: unsupported archive version %d (this build reads %d)",
			ErrCorrupt, hdr[4], archiveVersion)
	}
	var footer [archiveFooterLen]byte
	if _, err := r.ReadAt(footer[:], size-archiveFooterLen); err != nil {
		return nil, fmt.Errorf("%w: archive footer unreadable: %v", ErrCorrupt, err)
	}
	if string(footer[16:20]) != archiveEndMagic {
		return nil, fmt.Errorf("%w: archive footer missing (truncated file?)", ErrCorrupt)
	}
	tocOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	tocLen := int64(binary.LittleEndian.Uint32(footer[8:12]))
	tocCRC := binary.LittleEndian.Uint32(footer[12:16])
	if tocOff < archiveHeaderLen || tocOff+tocLen != size-archiveFooterLen {
		return nil, fmt.Errorf("%w: archive TOC extent [%d,+%d) inconsistent with file size %d",
			ErrCorrupt, tocOff, tocLen, size)
	}
	toc := make([]byte, tocLen)
	if _, err := r.ReadAt(toc, tocOff); err != nil {
		return nil, fmt.Errorf("%w: archive TOC unreadable: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(toc) != tocCRC {
		return nil, fmt.Errorf("%w: archive TOC checksum mismatch", ErrCorrupt)
	}
	entries, index, err := parseTOC(toc, tocOff)
	if err != nil {
		return nil, err
	}
	return &ArchiveStore{
		entries: entries,
		index:   index,
		r:       r,
		rsize:   size,
	}, nil
}

// parseTOC decodes and validates the table of contents. Every field is
// untrusted: counts are bounded before they size allocations, extents must
// lie inside the payload region [header, tocOff), and no two blobs may
// overlap. It is the FuzzTOC target, so it must never panic.
func parseTOC(toc []byte, tocOff int64) ([]tocEntry, map[string]int, error) {
	rd := bytes.NewReader(toc)
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: archive TOC truncated (count)", ErrCorrupt)
	}
	// Every entry takes at least 8 encoded bytes (1-byte name length,
	// 1-byte name, 1-byte offset, 1-byte length, 4-byte CRC), so a count
	// the TOC cannot physically hold is rejected before it sizes the
	// entries slice and index map below.
	if count > maxArchiveBlobs || count > uint64(len(toc))/8 {
		return nil, nil, fmt.Errorf("%w: implausible archive blob count %d", ErrCorrupt, count)
	}
	entries := make([]tocEntry, 0, count)
	index := make(map[string]int, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := binary.ReadUvarint(rd)
		if err != nil || nameLen > uint64(rd.Len()) {
			return nil, nil, fmt.Errorf("%w: archive TOC truncated (name)", ErrCorrupt)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(rd, nameBuf); err != nil {
			return nil, nil, fmt.Errorf("%w: archive TOC truncated (name)", ErrCorrupt)
		}
		name := string(nameBuf)
		if !validName(name) {
			return nil, nil, errBadName(name)
		}
		off, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: archive TOC truncated (offset)", ErrCorrupt)
		}
		length, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: archive TOC truncated (length)", ErrCorrupt)
		}
		var crc [4]byte
		if _, err := io.ReadFull(rd, crc[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: archive TOC truncated (crc)", ErrCorrupt)
		}
		// Bounds: the extent must sit inside [header, tocOff) without
		// wrapping. Comparing in uint64 first rejects values that would
		// overflow the int64 sum.
		if off < archiveHeaderLen || off > uint64(tocOff) || length > uint64(tocOff)-off {
			return nil, nil, fmt.Errorf("%w: blob %q extent [%d,+%d) outside archive payload",
				ErrCorrupt, name, off, length)
		}
		if _, dup := index[name]; dup {
			return nil, nil, fmt.Errorf("%w: duplicate blob name %q in archive", ErrCorrupt, name)
		}
		index[name] = len(entries)
		entries = append(entries, tocEntry{
			name:   name,
			off:    int64(off),
			length: int64(length),
			crc:    binary.LittleEndian.Uint32(crc[:]),
		})
	}
	if rd.Len() != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after archive TOC entries", ErrCorrupt, rd.Len())
	}
	// Overlap check: sorted by offset, each blob must end before the next
	// begins (zero-length blobs may share an offset).
	byOff := append([]tocEntry(nil), entries...)
	sort.Slice(byOff, func(i, j int) bool {
		if byOff[i].off != byOff[j].off {
			return byOff[i].off < byOff[j].off
		}
		return byOff[i].length < byOff[j].length
	})
	for i := 1; i < len(byOff); i++ {
		prev, cur := byOff[i-1], byOff[i]
		if prev.off+prev.length > cur.off {
			return nil, nil, fmt.Errorf("%w: blobs %q and %q overlap in archive",
				ErrCorrupt, prev.name, cur.name)
		}
	}
	return entries, index, nil
}
