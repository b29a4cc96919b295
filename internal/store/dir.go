package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// DirStore is the historical compressed-trace layout: one file per blob in
// a flat directory. It is byte-identical to what the pre-store code wrote,
// so every golden v1/v2 trace and byte-identity test keeps passing.
type DirStore struct {
	dir string
	// made records whether CreateDir created the directory, so Abort can
	// remove it (while still empty) after a failed trace create without
	// ever deleting a directory the caller owned beforehand.
	made bool
}

// OpenDir returns a DirStore reading an existing trace directory. Missing
// directories surface as missing blobs on Open, matching the historical
// error shape.
func OpenDir(dir string) *DirStore {
	return &DirStore{dir: dir}
}

// CreateDir returns a DirStore writing into dir, creating it if needed.
func CreateDir(dir string) (*DirStore, error) {
	made := false
	if _, err := os.Stat(dir); err != nil {
		made = true
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("atc: create dir: %w", err)
	}
	return &DirStore{dir: dir, made: made}, nil
}

// Dir reports the backing directory path.
func (s *DirStore) Dir() string { return s.dir }

// Create implements Store.
func (s *DirStore) Create(name string) (io.WriteCloser, error) {
	if !validName(name) {
		return nil, errBadName(name)
	}
	return os.Create(filepath.Join(s.dir, name))
}

// fileBlob adapts an *os.File (which already has Read and Close) with
// the stat-derived size.
type fileBlob struct {
	*os.File
	size int64
}

func (b *fileBlob) Size() int64 { return b.size }

// Open implements Store.
func (s *DirStore) Open(name string) (Blob, error) {
	if !validName(name) {
		return nil, errBadName(name)
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err // wraps fs.ErrNotExist for missing files
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileBlob{File: f, size: fi.Size()}, nil
}

// List implements Store: regular files in directory order.
func (s *DirStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// Size implements Store: the summed sizes of all files in the directory.
func (s *DirStore) Size() (int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// Remove implements Store.
func (s *DirStore) Remove(name string) error {
	if !validName(name) {
		return errBadName(name)
	}
	err := os.Remove(filepath.Join(s.dir, name))
	if err != nil && os.IsNotExist(err) {
		return fmt.Errorf("%v: %w", err, fs.ErrNotExist)
	}
	return err
}

// Close implements Store; directories need no finalization.
func (s *DirStore) Close() error { return nil }

// Abort removes the directory after a failed trace create — but only if
// CreateDir made it, and os.Remove keeps it safe: a non-empty directory
// (pre-existing user files) is left alone.
func (s *DirStore) Abort() {
	if s.made {
		os.Remove(s.dir)
	}
}
