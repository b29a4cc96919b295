// Package store abstracts the container a compressed trace lives in.
//
// The paper's tooling (and this repo's seed) hard-coded one layout: a
// filesystem directory holding MANIFEST, INFO.<backend> and numbered chunk
// files. That layout is one Store implementation among four:
//
//   - DirStore — the historical directory layout, byte-identical to what
//     the seed wrote, so golden v1/v2 traces keep decoding and the
//     byte-identity tests keep passing.
//   - ArchiveStore — a single seekable .atc file: fixed header, blob
//     payloads back to back, and a trailing table of contents with one
//     offset/length/CRC32 record per blob. Blobs are served from an
//     io.ReaderAt, so concurrent segment readahead needs no per-chunk
//     open(2) calls and the file can sit behind any random-access medium.
//   - RemoteStore — an archive behind an http(s) URL, read in place: the
//     TOC is fetched at open, then each blob streams exactly its TOC
//     extent through one ranged GET.
//   - MemStore — blobs in a map, for tests and in-memory serving tiers.
//
// The compressor and decompressor in atc/internal/core speak only this
// package's Store interface; nothing above the store layer knows whether a
// trace is a directory, an archive file, or bytes in memory.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
)

// ErrCorrupt reports a malformed compressed trace or archive. It is the
// canonical corruption sentinel for the whole module: atc/internal/core
// aliases it, so errors.Is(err, ErrCorrupt) matches across layers.
var ErrCorrupt = errors.New("atc: corrupt compressed trace")

// Blob is one named payload read back from a Store, front to back.
// Implementations are safe for the concurrent use pattern of the decode
// readahead fan-out (each goroutine holds its own Blob). Close releases
// whatever the blob holds open (a file, a remote response) even when it
// was not read to the end.
type Blob interface {
	io.Reader
	io.Closer
	// Size reports the blob's payload length in bytes.
	Size() int64
}

// Store is a container of named blobs backing one compressed trace.
//
// The write phase creates blobs (concurrently — chunk-compression workers
// call Create from multiple goroutines) and finishes with Close, which
// finalizes the container (an ArchiveStore writes its table of contents
// there; DirStore and MemStore need no finalization). The read phase opens
// blobs by name; Open may be called concurrently.
type Store interface {
	// Create starts a new blob. The blob becomes readable once the
	// returned writer is closed. Create may be called from multiple
	// goroutines at once.
	Create(name string) (io.WriteCloser, error)
	// Open returns the named blob for reading, or an error wrapping
	// fs.ErrNotExist when no such blob exists.
	Open(name string) (Blob, error)
	// List reports the stored blob names in a stable order.
	List() ([]string, error)
	// Size reports the container's total size in bytes — the quantity the
	// paper's bits-per-address metric divides. For an ArchiveStore this
	// includes the header and table of contents; for a DirStore it is the
	// summed file sizes.
	Size() (int64, error)
	// Remove deletes a blob (write phase only for archives).
	Remove(name string) error
	// Close finalizes a written container or releases a read one.
	Close() error
}

// aborter is implemented by stores that can undo their own creation after
// a failed trace write (remove the archive file, remove a directory the
// store itself created). The compressor calls it on create-path failures.
type aborter interface {
	Abort()
}

// Abort undoes the creation of a store when it supports doing so.
func Abort(s Store) {
	if a, ok := s.(aborter); ok {
		a.Abort()
	}
}

// validName reports whether name is acceptable as a blob name: non-empty,
// no path separators, no parent-directory escapes. Every implementation
// enforces it so a corrupt TOC cannot direct a DirStore unpack outside its
// directory.
func validName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	if strings.ContainsAny(name, "/\\") {
		return false
	}
	return true
}

// errBadName builds the shared invalid-name error.
func errBadName(name string) error {
	return fmt.Errorf("%w: invalid blob name %q", ErrCorrupt, name)
}

// notExist builds the shared missing-blob error.
func notExist(name string) error {
	return fmt.Errorf("blob %q: %w", name, fs.ErrNotExist)
}

// ReadBlob reads a whole named blob into memory.
func ReadBlob(s Store, name string) ([]byte, error) {
	b, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return io.ReadAll(b)
}

// WriteBlob stores data as a complete named blob.
func WriteBlob(s Store, name string, data []byte) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// CopyAll copies every blob of src into dst in List order — the engine of
// the atcpack dir↔archive converter. It does not Close dst.
func CopyAll(dst, src Store) error {
	names, err := src.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := copyBlob(dst, src, name); err != nil {
			return fmt.Errorf("copying blob %q: %w", name, err)
		}
	}
	return nil
}

func copyBlob(dst, src Store, name string) error {
	b, err := src.Open(name)
	if err != nil {
		return err
	}
	defer b.Close()
	w, err := dst.Create(name)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, b); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// Equal reports whether two stores hold the same blob names with
// byte-identical contents — atcpack's -verify check.
func Equal(a, b Store) (bool, error) {
	an, err := a.List()
	if err != nil {
		return false, err
	}
	bn, err := b.List()
	if err != nil {
		return false, err
	}
	sort.Strings(an)
	sort.Strings(bn)
	if len(an) != len(bn) {
		return false, nil
	}
	for i, name := range an {
		if bn[i] != name {
			return false, nil
		}
		same, err := blobsEqual(a, b, name)
		if err != nil || !same {
			return same, err
		}
	}
	return true, nil
}

// blobsEqual streams both copies of one blob through fixed-size buffers,
// so verifying a trace with a multi-gigabyte single-chunk blob runs in
// constant memory.
func blobsEqual(a, b Store, name string) (bool, error) {
	ab, err := a.Open(name)
	if err != nil {
		return false, err
	}
	defer ab.Close()
	bb, err := b.Open(name)
	if err != nil {
		return false, err
	}
	defer bb.Close()
	if ab.Size() != bb.Size() {
		return false, nil
	}
	const bufLen = 256 << 10
	abuf := make([]byte, bufLen)
	bbuf := make([]byte, bufLen)
	for {
		n, aerr := io.ReadFull(ab, abuf)
		m, berr := io.ReadFull(bb, bbuf)
		k := min(n, m)
		if !bytes.Equal(abuf[:k], bbuf[:k]) {
			return false, nil
		}
		// Real errors (a CRC mismatch, an I/O failure) outrank a length
		// difference: surface them rather than reporting "not equal".
		if aerr != nil && aerr != io.EOF && aerr != io.ErrUnexpectedEOF {
			return false, aerr
		}
		if berr != nil && berr != io.EOF && berr != io.ErrUnexpectedEOF {
			return false, berr
		}
		if n != m {
			return false, nil
		}
		if aerr != nil || berr != nil { // both at EOF with equal content
			return aerr != nil && berr != nil, nil
		}
	}
}
