package blob

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// nativeLittleEndian: a float64 in memory is laid out as a section stores it.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

var liveMappings atomic.Int64

// Mapping is a file mapped read-only: clean page-cache pages outside the Go
// heap, shared with every process mapping the same file. It is released
// when the garbage collector finds the *Mapping unreachable, so whoever
// reads views of it (Reader.Floats) holds it and ends in runtime.KeepAlive
// of the holder. The pages outlive an unlink or a rename over the file, not
// a truncation: replace an index file by rename, never by writing over it.
type Mapping struct {
	data     []byte
	dev, ino uint64 // the file's identity, whatever path opened it
}

// Map maps the whole of f. It fails — and the caller reads f as a stream —
// where there is no mmap, on a big-endian machine, and for anything but a
// non-empty regular file.
func Map(f *os.File) (*Mapping, error) {
	dev, ino, size, err := stat(f)
	if err == nil && (!nativeLittleEndian || size <= 0 || int64(int(size)) != size) {
		err = errors.ErrUnsupported
	}
	if err != nil {
		return nil, err
	}
	data, err := mmap(f, int(size))
	if err != nil {
		return nil, err
	}
	m := &Mapping{data: data, dev: dev, ino: ino}
	liveMappings.Add(1)
	runtime.AddCleanup(m, func(data []byte) {
		munmap(data)
		liveMappings.Add(-1)
	}, data)
	return m, nil
}

// Len is the number of bytes mapped; 0 for a nil Mapping.
func (m *Mapping) Len() int {
	if m == nil {
		return 0
	}
	return len(m.data)
}

// Viewed is the bytes of v if v lies in m, as the arrays a Reader over m
// returns do, else 0: a copy on the heap, or no mapping. A holder's
// MappedBytes sums it over the arrays it may have read from m.
func Viewed[F element](m *Mapping, v []F) int64 {
	n := uintptr(len(v)) * unsafe.Sizeof(F(0))
	if m == nil || n == 0 {
		return 0
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(v))), uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	if p < lo || p-lo+n > uintptr(len(m.data)) {
		return 0
	}
	return int64(n)
}

// Holds reports whether f is the file m maps, whose pages are being read.
func (m *Mapping) Holds(f *os.File) bool {
	dev, ino, _, err := stat(f)
	return err == nil && dev == m.dev && ino == m.ino
}

// LiveMappings is the number of mappings made by Map and not yet released.
func LiveMappings() int { return int(liveMappings.Load()) }
