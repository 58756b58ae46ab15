package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var testMagic = [MagicLen]byte{'B', 'L', 'O', 'B', 'T', 'S'}

type section struct {
	tag    string
	bytes  []byte
	floats []float64
	f32    []float32
}

func encode(version uint16, secs []section) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, version, uint32(len(secs)))
	for _, s := range secs {
		switch {
		case s.floats != nil:
			w.Floats(s.tag, s.floats)
		case s.f32 != nil:
			w.Float32s(s.tag, s.f32)
		default:
			w.Bytes(s.tag, s.bytes)
		}
	}
	if err := w.Close(); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}

// ramp is n distinct floats, among them values whose bit patterns a lossy
// conversion would not survive.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)*1.0000001 - 3
	}
	copy(v, []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(-1)})
	return v
}

// ramp32 is ramp narrowed: n float32, among them the same edge cases.
func ramp32(n int) []float32 {
	v := make([]float32, n)
	for i, x := range ramp(n) {
		v[i] = float32(x)
	}
	v[1] = math.SmallestNonzeroFloat32
	return v
}

// plainReader hides Len and Seek: a stream of unknown length.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// onDisk writes data to a file of the test's own and opens it.
func onDisk(t testing.TB, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "container")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// within reports whether the first element of v lies inside b.
func within[F float32 | float64](v []F, b []byte) bool {
	if len(v) == 0 || len(b) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&v[0])), uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p < lo+uintptr(len(b))
}

// Sections of every shape — empty, unpadded, spanning several windows —
// come back bit for bit, from a sized source, from a bare stream and on
// the mapped arm (bytes in memory, a file), and the file is exactly as
// long as EncodedSize says. Only the mapped arm hands out views, and only
// of floats.
func TestRoundTrip(t *testing.T) {
	secs := []section{
		{tag: "HEAD", bytes: []byte("abc")},
		{tag: "NONE", bytes: []byte{}},
		{tag: "BIGF", floats: ramp(3*Window/8 + 5)},
		{tag: "TAIL", bytes: bytes.Repeat([]byte{7}, Window+1)},
		{tag: "ZERO", floats: []float64{}},
		{tag: "ODD4", f32: ramp32(3*Window/4 + 3)},
		{tag: "NIL4", f32: []float32{}},
	}
	data := encode(9, secs)
	if want := EncodedSize(3, 0, 8*len(secs[2].floats), Window+1, 0, 4*len(secs[5].f32), 0); len(data) != want {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), want)
	}
	_, mapErr := Map(onDisk(t, data))
	for name, r := range map[string]*Reader{
		"sized":   NewReader(bytes.NewReader(data)),
		"unsized": NewReader(plainReader{bytes.NewReader(data)}),
		"memory":  NewMappedReader(data),
		"file":    NewReader(onDisk(t, data)),
	} {
		mapped := name == "memory" || (name == "file" && mapErr == nil)
		if !r.HasMagic(testMagic) || r.HasMagic([MagicLen]byte{'n', 'o'}) {
			t.Fatalf("%s: HasMagic wrong", name)
		}
		if v := r.Header(); v != 9 {
			t.Fatalf("%s: header version %d, err %v", name, v, r.Err())
		}
		if got := r.Mapping() != nil; got != (name == "file" && mapErr == nil) {
			t.Fatalf("%s: holds a mapping: %v (Map: %v)", name, got, mapErr)
		}
		source := data
		if m := r.Mapping(); m != nil {
			source = m.data
		}
		for i, want := range secs {
			n := -1 // alternate between naming the length and taking any
			if want.floats != nil {
				if i%2 == 0 {
					n = len(want.floats)
				}
				got := r.Floats(want.tag, n)
				if r.Err() != nil || len(got) != len(want.floats) {
					t.Fatalf("%s %s: %d floats, err %v", name, want.tag, len(got), r.Err())
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want.floats[i]) {
						t.Fatalf("%s %s: float %d = %v, want %v", name, want.tag, i, got[i], want.floats[i])
					}
				}
				if view := within(got, source); view != (mapped && len(got) > 0 && nativeLittleEndian) {
					t.Fatalf("%s %s: a view of the source: %v", name, want.tag, view)
				}
				continue
			}
			if want.f32 != nil {
				if i%2 == 0 {
					n = len(want.f32)
				}
				got := r.Float32s(want.tag, n)
				if r.Err() != nil || len(got) != len(want.f32) {
					t.Fatalf("%s %s: %d float32s, err %v", name, want.tag, len(got), r.Err())
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want.f32[i]) {
						t.Fatalf("%s %s: float32 %d = %v, want %v", name, want.tag, i, got[i], want.f32[i])
					}
				}
				if view := within(got, source); view != (mapped && len(got) > 0 && nativeLittleEndian) {
					t.Fatalf("%s %s: a view of the source: %v", name, want.tag, view)
				}
				continue
			}
			if i%2 == 0 {
				n = len(want.bytes)
			}
			got := r.Bytes(want.tag, n)
			if r.Err() != nil || !bytes.Equal(got, want.bytes) {
				t.Fatalf("%s %s: %d bytes, err %v", name, want.tag, len(got), r.Err())
			}
			if len(got) > 0 && uintptr(unsafe.Pointer(&got[0]))-uintptr(unsafe.Pointer(&source[0])) < uintptr(len(source)) {
				t.Fatalf("%s %s: a byte section aliases the source", name, want.tag)
			}
		}
		if r.Bytes("MORE", -1); r.Err() == nil {
			t.Fatalf("%s: a section beyond the header's count was read", name)
		}
	}
}

// Every payload starts on an 8-byte file offset, whatever precedes it.
func TestPayloadsAreAligned(t *testing.T) {
	marker := []byte("\xde\xad\xbe\xef-payload")
	data := encode(1, []section{
		{tag: "ODD1", bytes: marker[:5]},
		{tag: "ODD2", bytes: marker},
		{tag: "FLTS", floats: []float64{1}},
		{tag: "ODD3", bytes: marker},
	})
	for off := 0; ; {
		i := bytes.Index(data[off:], marker)
		if i < 0 {
			break
		}
		if (off+i)%8 != 0 {
			t.Fatalf("payload at offset %d is not 8-byte aligned", off+i)
		}
		off += i + 1
	}
}

// readAll reads the three-section container the damage and fuzz tests
// use, the way a decoder would, up to its end. Whatever went wrong, the floats it returns
// are never a view of bytes whose checksum did not hold, nor at an address
// their type may not be read from.
func readAll(src io.Reader) error {
	r := NewReader(src)
	if !r.HasMagic(testMagic) {
		return errors.New("wrong magic")
	}
	r.Header()
	mapped := r.mem // what a view would point into
	r.Bytes("BYTE", -1)
	if err := handedOut(r, r.Floats("FLTS", -1), mapped); err != nil {
		return err
	}
	if err := handedOut(r, r.Float32s("F32S", -1), mapped); err != nil {
		return err
	}
	return r.End()
}

// handedOut checks what a float read returned; nil means read on.
func handedOut[F float32 | float64](r *Reader, v []F, mapped []byte) error {
	if len(v) == 0 {
		return r.Err()
	}
	if r.Err() != nil && within(v, mapped) {
		return fmt.Errorf("%d floats handed out with %w", len(v), r.Err())
	}
	if uintptr(unsafe.Pointer(&v[0]))%unsafe.Sizeof(v[0]) != 0 {
		return fmt.Errorf("%d floats handed out misaligned", len(v))
	}
	return r.Err()
}

// threeSections is a well-formed container of readAll's three sections.
func threeSections(version uint16, nf, n32 int) []byte {
	return encode(version, []section{
		{tag: "BYTE", bytes: []byte("hello")}, {tag: "FLTS", floats: ramp(nf)}, {tag: "F32S", f32: ramp32(n32)},
	})
}

// readBoth is readAll over data on the streaming arm and on the mapped
// arm, which must agree to the letter.
func readBoth(t testing.TB, data []byte) error {
	t.Helper()
	stream, mapped := readAll(bytes.NewReader(data)), readAll(NewMappedReader(data))
	if fmt.Sprint(stream) != fmt.Sprint(mapped) {
		t.Fatalf("streamed: %v\nmapped:   %v", stream, mapped)
	}
	return stream
}

func TestRejectsDamage(t *testing.T) {
	data := threeSections(1, 100, 33)
	r := NewReader(bytes.NewReader(data))
	r.Header()
	if r.Bytes("BYTE", 4); r.Err() == nil {
		t.Fatal("a section of 5 bytes was read as one of 4")
	}
	if err := readBoth(t, data); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := readBoth(t, data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went unnoticed", cut, len(data))
		}
	}
	// Past the version every bit is under a checksum or, the section
	// count, held to the sections that follow; so is the padding, which
	// must be zero, and nothing may follow the last section.
	for i := MagicLen + 2; i < len(data); i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x10
		if err := readBoth(t, bad); err == nil {
			t.Fatalf("bit flip at byte %d went unnoticed", i)
		}
	}
	bad := bytes.Clone(data)
	bad[0] ^= 1
	if err := readBoth(t, bad); err == nil {
		t.Fatal("wrong magic went unnoticed")
	}
	if err := readBoth(t, append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("a byte after the last section went unnoticed")
	}
	if err := readAll(plainReader{bytes.NewReader(append(bytes.Clone(data), 0))}); err == nil {
		t.Fatal("a byte after the last section of a bare stream went unnoticed")
	}
	// "hello" is padded by three bytes: one set, under a checksum that holds.
	bad = bytes.Clone(data)
	sec := bad[fileHeaderLen : fileHeaderLen+secHeaderLen+8]
	sec[secHeaderLen+5] = 1
	binary.LittleEndian.PutUint32(bad[fileHeaderLen+len(sec):], crc32.ChecksumIEEE(sec))
	if err := readBoth(t, bad); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("non-zero padding: %v", err)
	}
}

// lyingHeader is a container whose last section, a float section tagged
// tag (FLTS or F32S), claims n bytes and delivers 64.
func lyingHeader(tag string, n uint64) []byte {
	secs := []section{{tag: "BYTE", bytes: nil}, {tag: "FLTS", floats: []float64{}}}
	if tag == "F32S" {
		secs = append(secs, section{tag: tag, f32: []float32{}})
	}
	data := encode(1, secs)
	data = data[:len(data)-secHeaderLen-crc32.Size+4]
	data = binary.LittleEndian.AppendUint64(data, n)
	return append(data, make([]byte, 64)...)
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A section longer than what can still arrive fails before allocation
// when the source's length is known, and costs no more than what did
// arrive when it is not.
func TestLyingLengthNeverAllocatesIt(t *testing.T) {
	for _, claim := range []uint64{1 << 33, math.MaxUint64 - 3, math.MaxInt64 - 6, math.MaxInt64 - 7} {
		for _, tag := range []string{"FLTS", "F32S"} {
			data := lyingHeader(tag, claim)
			for name, open := range map[string]func() io.Reader{
				"sized":   func() io.Reader { return bytes.NewReader(data) },
				"unsized": func() io.Reader { return plainReader{bytes.NewReader(data)} },
				"mapped":  func() io.Reader { return NewMappedReader(data) },
			} {
				var err error
				got := allocatedBy(func() { err = readAll(open()) })
				if err == nil {
					t.Fatalf("%s: claim of %d bytes accepted", name, claim)
				}
				if got > 4*Window {
					t.Fatalf("%s: claim of %d bytes allocated %d", name, claim, got)
				}
			}
		}
	}
}

// The length bound follows a source that has already been read from.
func TestRemainingFromOffset(t *testing.T) {
	src := bytes.NewReader(make([]byte, 100))
	src.Seek(40, io.SeekStart)
	if got := remaining(src); got != 60 {
		t.Fatalf("remaining = %d, want 60", got)
	}
	if got := remaining(struct{ io.ReadSeeker }{src}); got != 60 {
		t.Fatalf("remaining via Seek = %d, want 60", got)
	}
	if pos, _ := src.Seek(0, io.SeekCurrent); pos != 40 {
		t.Fatalf("probe moved the source to %d", pos)
	}
	if got := remaining(plainReader{src}); got != -1 {
		t.Fatalf("remaining of a bare stream = %d, want -1", got)
	}
}

// The fuzz target holds every input to the damage rules: bounded
// allocation, one verdict on every arm — the mapped arm also at an address
// no float is aligned to, where it must copy instead of handing out a view.
// Its seeds are a good container, a truncated one, a lying float64 header,
// and for the float32 section an odd byte count, a cut inside it and a
// lying header.
func FuzzBlobSections(f *testing.F) {
	good := threeSections(3, 40, 41)
	f.Add(good, true)
	f.Add(good[:len(good)/2], false)
	f.Add(lyingHeader("FLTS", 1<<40), true)
	f.Add(lyingHeader("FLTS", 1<<40), false)
	odd := encode(3, []section{{tag: "BYTE", bytes: nil}, {tag: "FLTS", floats: ramp(2)}, {tag: "F32S", bytes: []byte("sixsix")}})
	f.Add(odd, true)
	f.Add(good[:len(good)-20], true)
	f.Add(lyingHeader("F32S", 1<<40+4), true)
	f.Add(lyingHeader("F32S", 1<<40+4), false)
	f.Fuzz(func(t *testing.T, data []byte, sized bool) {
		var src io.Reader = bytes.NewReader(data)
		if !sized {
			src = plainReader{src}
		}
		var err error
		got := allocatedBy(func() { err = readAll(src) })
		// Two windows of bufio and growth by doubling: a constant and a
		// constant factor of the input.
		if limit := uint64(4*Window + 4*len(data)); got > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d), err %v", len(data), got, limit, err)
		}
		// The mapped arm runs the same checks to the same verdict. (A
		// bare stream cannot bound a length claim up front, so only the
		// sized source is held to the same words.)
		mapped := readAll(NewMappedReader(data))
		if (mapped == nil) != (err == nil) || (sized && fmt.Sprint(mapped) != fmt.Sprint(err)) {
			t.Fatalf("streamed: %v\nmapped:   %v", err, mapped)
		}
		shifted := make([]byte, len(data)+1)[1:]
		copy(shifted, data)
		if misaligned := readAll(NewMappedReader(shifted)); fmt.Sprint(misaligned) != fmt.Sprint(mapped) {
			t.Fatalf("mapped: %v\nmapped one byte off: %v", mapped, misaligned)
		}
	})
}

// settle collects garbage until LiveMappings reads want, or gives up:
// cleanups run on their own goroutine some time after the collection that
// found the mapping unreachable.
func settle(want int) int {
	for deadline := time.Now().Add(10 * time.Second); LiveMappings() != want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return LiveMappings()
}

// A mapping outlives the close and the unlinking of its file, counts as
// live while something reaches it, and is released once nothing does.
func TestMappingLifetime(t *testing.T) {
	data := encode(1, []section{{tag: "BYTE", bytes: []byte("hello")}, {tag: "FLTS", floats: ramp(4 * Window / 8)}})
	f := onDisk(t, data)
	base := settle(0)
	m, err := Map(f)
	if err != nil {
		t.Skipf("no mapping on this platform: %v", err)
	}
	if !m.Holds(f) || m.Holds(onDisk(t, data)) || m.Len() != len(data) || (*Mapping)(nil).Len() != 0 {
		t.Fatalf("Holds/Len wrong (len %d of %d)", m.Len(), len(data))
	}
	f.Close()
	os.Remove(f.Name())
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := LiveMappings(); got != base+1 {
		t.Fatalf("%d live mappings while one is held, want %d", got, base+1)
	}
	if !bytes.Equal(m.data, data) {
		t.Fatal("the mapping of an unlinked file does not read as the file did")
	}
	runtime.KeepAlive(m)
	if got := settle(base); got != base {
		t.Fatalf("%d live mappings after the last was dropped, want %d", got, base)
	}
	if _, err := Map(onDisk(t, nil)); err == nil {
		t.Fatal("an empty file was mapped")
	}
}
