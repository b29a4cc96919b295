package store

import (
	"bytes"
	"io"
	"sync"
)

// MemStore holds blobs in memory. It backs tests and the future serving
// tier (decode straight from RAM, no filesystem). A MemStore written by a
// compressor remains fully readable after Close, so one store value can
// carry a trace from Compress to Decompress without touching disk.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	order []string
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{blobs: map[string][]byte{}}
}

// Create implements Store. The blob is committed atomically when the
// returned writer is closed; concurrent Creates of distinct names are safe.
func (s *MemStore) Create(name string) (io.WriteCloser, error) {
	if !validName(name) {
		return nil, errBadName(name)
	}
	return &memWriter{s: s, name: name}, nil
}

type memWriter struct {
	s      *MemStore
	name   string
	buf    bytes.Buffer
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	if _, exists := w.s.blobs[w.name]; !exists {
		w.s.order = append(w.s.order, w.name)
	}
	w.s.blobs[w.name] = w.buf.Bytes()
	return nil
}

// memBlob serves one committed blob through a bytes.Reader.
type memBlob struct {
	*bytes.Reader
}

func (b *memBlob) Close() error { return nil }

func (b *memBlob) Size() int64 { return b.Reader.Size() }

// Open implements Store.
func (s *MemStore) Open(name string) (Blob, error) {
	if !validName(name) {
		return nil, errBadName(name)
	}
	s.mu.RLock()
	data, ok := s.blobs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, notExist(name)
	}
	return &memBlob{Reader: bytes.NewReader(data)}, nil
}

// List implements Store: names in creation order.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...), nil
}

// Size implements Store: summed payload bytes (an in-memory trace has no
// container overhead).
func (s *MemStore) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, b := range s.blobs {
		total += int64(len(b))
	}
	return total, nil
}

// Remove implements Store.
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return notExist(name)
	}
	delete(s.blobs, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

// Close implements Store; the blobs stay readable (see the type comment).
func (s *MemStore) Close() error { return nil }

// Abort resets the store after a failed trace create.
func (s *MemStore) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs = map[string][]byte{}
	s.order = nil
}
