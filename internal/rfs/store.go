package rfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrNoFile is returned by stores for unknown file ids.
var ErrNoFile = errors.New("rfs: no such file")

// Store is the server's backing block store: a flat namespace of
// byte-addressed files keyed by 32-bit id. Implementations must be safe
// for concurrent use — the server's worker pool reads and writes from
// many goroutines.
type Store interface {
	// ReadAt fills p from the file at off, zero-filling any part past
	// end-of-file, and returns the number of in-file bytes copied.
	ReadAt(file uint32, p []byte, off int64) (int, error)
	// WriteAt stores p at off, creating or extending the file as needed.
	WriteAt(file uint32, p []byte, off int64) error
	// Size returns the file's length in bytes.
	Size(file uint32) (int64, error)
	// Create makes an empty file of the given size (truncating any
	// existing content).
	Create(file uint32, size int64) error
	// Files enumerates the ids of every file the store holds, in no
	// particular order (the primary's snapshot sender walks it to bring
	// a replica the log does not cover up to date).
	Files() ([]uint32, error)
	// Close releases store resources.
	Close() error
}

// MemStore is an in-memory Store: the server-resident "disk" for
// benchmarks and for the diskless demos where the server's memory is the
// backing store.
type MemStore struct {
	mu    sync.RWMutex
	files map[uint32][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[uint32][]byte)}
}

// ReadAt implements Store. The copy happens under the read lock: WriteAt
// mutates the backing array in place when the file does not grow.
func (s *MemStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[file]
	if !ok {
		return 0, ErrNoFile
	}
	for i := range p {
		p[i] = 0
	}
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(p, data[off:]), nil
}

// WriteAt implements Store; it creates or extends the file as needed.
func (s *MemStore) WriteAt(file uint32, p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.files[file]
	if need := off + int64(len(p)); need > int64(len(data)) {
		grown := make([]byte, need)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	s.files[file] = data
	return nil
}

// Size implements Store.
func (s *MemStore) Size(file uint32) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[file]
	if !ok {
		return 0, ErrNoFile
	}
	return int64(len(data)), nil
}

// Create implements Store.
func (s *MemStore) Create(file uint32, size int64) error {
	s.mu.Lock()
	s.files[file] = make([]byte, size)
	s.mu.Unlock()
	return nil
}

// Files implements Store.
func (s *MemStore) Files() ([]uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint32, 0, len(s.files))
	for id := range s.files {
		ids = append(ids, id)
	}
	return ids, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is a Store backed by one OS file per file id inside a
// directory — the durable variant for a real server. Files are opened
// lazily and kept open; os.File ReadAt/WriteAt are safe for concurrent
// use, so only the handle map is locked.
type FileStore struct {
	dir string

	mu    sync.Mutex
	files map[uint32]*os.File
}

// NewFileStore creates (if needed) and opens the backing directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rfs: store dir: %w", err)
	}
	return &FileStore{dir: dir, files: make(map[uint32]*os.File)}, nil
}

func (s *FileStore) path(file uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("f%08x.dat", file))
}

// open returns the handle for file, opening or (when create is set)
// creating it on first use.
func (s *FileStore) open(file uint32, create bool) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[file]; ok {
		return f, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(s.path(file), flags, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoFile
		}
		return nil, err
	}
	s.files[file] = f
	return f, nil
}

// ReadAt implements Store.
func (s *FileStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	f, err := s.open(file, false)
	if err != nil {
		return 0, err
	}
	n, err := f.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return n, err
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return n, nil
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(file uint32, p []byte, off int64) error {
	f, err := s.open(file, true)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(p, off)
	return err
}

// Size implements Store.
func (s *FileStore) Size(file uint32) (int64, error) {
	f, err := s.open(file, false)
	if err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements Store.
func (s *FileStore) Create(file uint32, size int64) error {
	f, err := s.open(file, true)
	if err != nil {
		return err
	}
	return f.Truncate(size)
}

// Files implements Store: the backing directory's f%08x.dat entries.
func (s *FileStore) Files() ([]uint32, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, e := range ents {
		var id uint32
		if _, err := fmt.Sscanf(e.Name(), "f%08x.dat", &id); err == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, id)
	}
	return first
}
