// Package blob is the framed-section container index files are stored
// in: a 12-byte file header (6-byte magic, uint16 version, uint32 section
// count), then per section a 12-byte header (4-byte tag, uint64 payload
// length), the payload zero-padded to a multiple of 8 bytes, and a CRC-32
// (IEEE) of header, payload and padding. Everything is little-endian, and
// a float section is the array in its in-memory layout.
//
// 12 + 12 and 12 + 4 are multiples of 8, so every payload starts on an
// 8-byte file offset: a float section of a mapped file is a view, not a copy.
package blob

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"
)

const (
	// Window is the size of the one buffer a Reader or Writer streams
	// through; neither ever holds a second copy of an array.
	Window = 64 << 10
	// MagicLen is the length of the magic a file starts with.
	MagicLen = 6

	fileHeaderLen = MagicLen + 2 + 4
	secHeaderLen  = 4 + 8
)

func padded(n uint64) uint64 { return (n + 7) &^ 7 }

// EncodedSize is the exact length of a file whose sections carry payloads
// of the given lengths.
func EncodedSize(payloads ...int) int {
	size := fileHeaderLen
	for _, n := range payloads {
		size += secHeaderLen + int(padded(uint64(n))) + crc32.Size
	}
	return size
}

// Writer writes one container through a bufio.Writer. Errors are sticky:
// the first is returned by Close and later calls do nothing.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter writes the file header of a container that will hold the
// given number of sections, each with a 4-byte tag.
func NewWriter(w io.Writer, magic [MagicLen]byte, version uint16, sections uint32) *Writer {
	bw := bufio.NewWriterSize(w, Window)
	hdr := append(bw.AvailableBuffer(), magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	_, err := bw.Write(binary.LittleEndian.AppendUint32(hdr, sections))
	return &Writer{bw: bw, err: err}
}

// write appends p to the stream and to the running checksum.
func (w *Writer) write(crc uint32, p []byte) uint32 {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

// begin writes a section header; end pads the payload and writes the CRC.
func (w *Writer) begin(tag string, n int) uint32 {
	hdr := append(w.bw.AvailableBuffer(), tag...)
	return w.write(0, binary.LittleEndian.AppendUint64(hdr, uint64(n)))
}

func (w *Writer) end(crc uint32, n int) {
	var zeros [8]byte
	crc = w.write(crc, zeros[:padded(uint64(n))-uint64(n)])
	w.write(0, binary.LittleEndian.AppendUint32(nil, crc))
}

// Bytes writes p as one section.
func (w *Writer) Bytes(tag string, p []byte) {
	w.end(w.write(w.begin(tag, len(p)), p), len(p))
}

// Floats writes v as one section of raw float64.
func (w *Writer) Floats(tag string, v []float64) { writeArray(w, tag, v) }

// Float32s writes v as one section of raw float32.
func (w *Writer) Float32s(tag string, v []float32) { writeArray(w, tag, v) }

// Int8s writes v as one section of raw int8.
func (w *Writer) Int8s(tag string, v []int8) { writeArray(w, tag, v) }

// element is what an array section holds: a number of fixed width.
type element interface {
	uint8 | int8 | float32 | float64
}

// writeArray writes v as one section, copying its bytes into the
// bufio.Writer's own buffer and putting them in little-endian order there.
func writeArray[F element](w *Writer, tag string, v []F) {
	size := int(unsafe.Sizeof(F(0)))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), size*len(v))
	crc, n := w.begin(tag, len(raw)), len(raw)
	for len(raw) > 0 && w.err == nil {
		buf := w.bw.AvailableBuffer()
		if cap(buf) < size {
			w.err = w.bw.Flush()
			continue
		}
		fit := min(len(raw), cap(buf)/size*size)
		crc, raw = w.write(crc, littleEndian(append(buf, raw[:fit]...), size)), raw[fit:]
	}
	w.end(crc, n)
}

// littleEndian swaps b, values of size bytes, between native and
// little-endian byte order in place (nothing to do on a little-endian CPU).
func littleEndian(b []byte, size int) []byte {
	for i := 0; !nativeLittleEndian && i < len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
	return b
}

// Close flushes the container and reports the first error of any call.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader reads a container's sections in the order its caller names
// them — and, because an index file may predate the container, lets the
// caller sniff the magic first and hand the same buffered stream to a
// legacy decoder instead. Errors are sticky: after the first, Err reports
// it and what reads return is meaningless.
//
// A Reader never allocates more than a constant factor of the bytes it
// has been given. When the source's length is known (an io.Seeker, such
// as *os.File or *bytes.Reader) a section longer than what can still
// arrive fails before anything is allocated; otherwise destinations grow
// by append as the bytes come in.
//
// When the source is a file Map can map, Header switches to the mapped arm:
// the same walk and checks run over the mapping, and Floats returns a view
// of the bytes it has just verified.
type Reader struct {
	*bufio.Reader
	left     int64 // bytes the source can still deliver; -1 when unknown
	sections uint32
	err      error
	file     *os.File // the source, when Header may map it
	mem      []byte   // mapped arm: the bytes not yet taken, in memory
	m        *Mapping // what mem is a view of, when that is a mapping
}

// NewReader wraps r. A *Reader is returned as it is, so a caller that has
// sniffed the magic can pass its Reader down through an io.Reader
// parameter without losing the length bound.
func NewReader(r io.Reader) *Reader {
	if br, ok := r.(*Reader); ok {
		return br
	}
	f, _ := r.(*os.File)
	return &Reader{Reader: bufio.NewReaderSize(r, Window), left: remaining(r), file: f}
}

// NewMappedReader reads data on the mapped arm: floats are views of data.
// Nothing streams through its bufio.Reader, so it gets the smallest.
func NewMappedReader(data []byte) *Reader {
	return &Reader{Reader: bufio.NewReaderSize(bytes.NewReader(data), 16), left: int64(len(data)), mem: data}
}

// Mapping is what the float sections are views of; nil when they are copies.
func (r *Reader) Mapping() *Mapping { return r.m }

// remaining is how many bytes r can still deliver, or -1 if it cannot say.
func remaining(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	end, err := s.Seek(0, io.SeekEnd)
	if _, back := s.Seek(cur, io.SeekStart); err != nil || back != nil {
		return -1
	}
	return max(end-cur, 0)
}

// Err is the first error any read met.
func (r *Reader) Err() error { return r.err }

// HasMagic reports whether the stream starts with magic, consuming
// nothing.
func (r *Reader) HasMagic(magic [MagicLen]byte) bool {
	head, _ := r.Peek(MagicLen)
	return string(head) == string(magic[:])
}

// Header consumes the file header, whose magic the caller has sniffed,
// and returns the version.
func (r *Reader) Header() uint16 {
	if r.file != nil && r.left > 0 {
		// Nothing is consumed yet: the source stands left bytes before the end.
		if m, err := Map(r.file); err == nil && int64(m.Len()) >= r.left {
			r.m, r.mem = m, m.data[int64(m.Len())-r.left:]
		}
	}
	hdr := r.take(fileHeaderLen)
	if r.err != nil {
		return 0
	}
	r.sections = binary.LittleEndian.Uint32(hdr[MagicLen+2:])
	return binary.LittleEndian.Uint16(hdr[MagicLen:])
}

// take returns the next n <= Window bytes, valid until the next call.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	var b []byte
	if r.mem == nil {
		b, _ = r.Peek(n)
		r.Discard(len(b))
	} else if n <= len(r.mem) {
		b, r.mem = r.mem[:n:n], r.mem[n:]
	}
	if len(b) != n {
		r.err = fmt.Errorf("blob: truncated: %w", io.ErrUnexpectedEOF)
		return nil
	}
	if r.left >= 0 {
		r.left -= int64(n)
	}
	return b
}

// section reads the next section, which must carry tag and, if want >= 0,
// want elements of size elem, handing the payload to sink a window at a
// time. Before the first piece, alloc is told how many elements may be
// trusted to arrive: all of them once the section is known to fit in the
// source, one window's worth otherwise. Without verify the payload's
// checksum is not computed: its header, padding and length still are.
func (r *Reader) section(tag string, want, elem int, verify bool, alloc func(trusted int), sink func([]byte)) {
	if r.err == nil && r.sections == 0 {
		r.err = fmt.Errorf("blob: section %q is missing", tag)
	}
	hdr := r.take(secHeaderLen)
	if r.err != nil {
		return
	}
	crc := crc32.ChecksumIEEE(hdr)
	got, n := string(hdr[:4]), binary.LittleEndian.Uint64(hdr[4:])
	switch {
	case got != tag:
		r.err = fmt.Errorf("blob: section %q where %q belongs", got, tag)
	case n > math.MaxInt64-7 || n%uint64(elem) != 0 || (want >= 0 && n/uint64(elem) != uint64(want)):
		r.err = fmt.Errorf("blob: section %q holds %d bytes, not %d × %d", tag, n, want, elem)
	case r.left >= 0 && padded(n) > uint64(r.left):
		r.err = fmt.Errorf("blob: section %q claims %d bytes, only %d can follow", tag, n, r.left)
	}
	if r.err != nil {
		return
	}
	r.sections--
	trusted := n
	if r.left < 0 {
		trusted = min(n, Window)
	}
	alloc(int(trusted / uint64(elem)))
	for rest := n; rest > 0 && r.err == nil; {
		b := r.take(int(min(rest, Window)))
		if verify {
			crc = crc32.Update(crc, crc32.IEEETable, b)
		}
		sink(b)
		rest -= uint64(len(b))
	}
	tail := r.take(int(padded(n)-n) + crc32.Size)
	if r.err != nil {
		return
	}
	pad := tail[:len(tail)-crc32.Size]
	if verify && crc32.Update(crc, crc32.IEEETable, pad) != binary.LittleEndian.Uint32(tail[len(pad):]) {
		r.err = fmt.Errorf("blob: section %q: checksum mismatch", tag)
	} else if slices.ContainsFunc(pad, func(b byte) bool { return b != 0 }) {
		r.err = fmt.Errorf("blob: section %q: padding is not zero", tag)
	}
}

// End checks that the container stops after the sections read so far:
// that the header counts no further section and that no byte follows.
// It returns the first error of any read.
func (r *Reader) End() error {
	if r.err == nil && r.sections != 0 {
		r.err = fmt.Errorf("blob: %d sections left unread", r.sections)
	}
	if r.err == nil {
		more := len(r.mem) > 0
		if r.mem == nil { // the streamed arm
			b, _ := r.Peek(1)
			more = len(b) > 0
		}
		if more {
			r.err = errors.New("blob: bytes follow the last section")
		}
	}
	return r.err
}

// Bytes reads the next section, tagged tag, of n bytes (any length if
// n < 0).
func (r *Reader) Bytes(tag string, n int) []byte {
	var dst []byte
	r.section(tag, n, 1, true,
		func(trusted int) { dst = make([]byte, 0, trusted) },
		func(b []byte) { dst = append(dst, b...) })
	return dst
}

// Nested reads the next section, tagged tag, whose payload is a container
// of its own, and returns a Reader over that payload: on the mapped arm a
// view of r's bytes whose arrays hold r's Mapping, otherwise a copy whose
// arrays are views of it. The section's own checksum is not computed: the
// nested container checks every payload byte under its own checksums, so
// each byte is checked once, and on the mapped arm no payload page is
// touched until the nested Reader reads it. If r fails, so does the
// nested Reader.
func (r *Reader) Nested(tag string) *Reader {
	n := NewMappedReader(readArray[uint8](r, tag, -1, false))
	n.m, n.err = r.m, r.err
	return n
}

// Floats reads the next section, tagged tag, of n float64 (any number if
// n < 0); see readArray.
func (r *Reader) Floats(tag string, n int) []float64 { return readArray[float64](r, tag, n, true) }

// Float32s reads the next section, tagged tag, of n float32 (any number if
// n < 0); see readArray.
func (r *Reader) Float32s(tag string, n int) []float32 { return readArray[float32](r, tag, n, true) }

// Int8s reads the next section, tagged tag, of n int8 (any number if n <
// 0); see readArray.
func (r *Reader) Int8s(tag string, n int) []int8 { return readArray[int8](r, tag, n, true) }

// readArray reads an array section, copying from the window into the
// returned slice and putting each value in native byte order there; the
// mapped arm returns the payload itself once its length (and, if verify,
// its checksum) has held, if the machine and alignment allow.
func readArray[F element](r *Reader, tag string, n int, verify bool) []F {
	size := int(unsafe.Sizeof(F(0)))
	var dst []F
	var view []byte
	r.section(tag, n, size, verify,
		func(trusted int) {
			if trusted > 0 && r.mem != nil && nativeLittleEndian && uintptr(unsafe.Pointer(&r.mem[0]))%uintptr(size) == 0 {
				view = r.mem[:size*trusted]
			} else {
				dst = make([]F, 0, trusted)
			}
		},
		func(b []byte) {
			if view != nil || len(b) == 0 { // a view, or a read that failed
				return
			}
			i := len(dst)
			dst = slices.Grow(dst, len(b)/size)[:i+len(b)/size]
			raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[i])), len(b))
			littleEndian(raw[:copy(raw, b)], size)
		})
	if view != nil && r.err == nil {
		return unsafe.Slice((*F)(unsafe.Pointer(&view[0])), len(view)/size)
	}
	return dst
}
