package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"
)

var testMagic = [MagicLen]byte{'B', 'L', 'O', 'B', 'T', 'S'}

type section struct {
	tag    string
	bytes  []byte
	floats []float64
}

func encode(version uint16, secs []section) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic, version, uint32(len(secs)))
	for _, s := range secs {
		if s.floats != nil {
			w.Floats(s.tag, s.floats)
		} else {
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

// plainReader hides Len and Seek: a stream of unknown length.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// Sections of every shape — empty, unpadded, spanning several windows —
// come back bit for bit, from a sized source and from a bare stream, and
// the file is exactly as long as EncodedSize says.
func TestRoundTrip(t *testing.T) {
	secs := []section{
		{tag: "HEAD", bytes: []byte("abc")},
		{tag: "NONE", bytes: []byte{}},
		{tag: "BIGF", floats: ramp(3*Window/8 + 5)},
		{tag: "TAIL", bytes: bytes.Repeat([]byte{7}, Window+1)},
		{tag: "ZERO", floats: []float64{}},
	}
	data := encode(9, secs)
	if want := EncodedSize(3, 0, 8*len(secs[2].floats), Window+1, 0); len(data) != want {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), want)
	}
	for name, src := range map[string]io.Reader{
		"sized":   bytes.NewReader(data),
		"unsized": plainReader{bytes.NewReader(data)},
	} {
		r := NewReader(src)
		if !r.HasMagic(testMagic) || r.HasMagic([MagicLen]byte{'n', 'o'}) {
			t.Fatalf("%s: HasMagic wrong", name)
		}
		if v := r.Header(); v != 9 {
			t.Fatalf("%s: header version %d, err %v", name, v, r.Err())
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
				continue
			}
			if i%2 == 0 {
				n = len(want.bytes)
			}
			if got := r.Bytes(want.tag, n); r.Err() != nil || !bytes.Equal(got, want.bytes) {
				t.Fatalf("%s %s: %d bytes, err %v", name, want.tag, len(got), r.Err())
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

// readAll reads the two-section container the damage and fuzz tests use,
// the way a decoder would.
func readAll(src io.Reader) error {
	r := NewReader(src)
	if !r.HasMagic(testMagic) {
		return errors.New("wrong magic")
	}
	r.Header()
	r.Bytes("BYTE", -1)
	r.Floats("FLTS", -1)
	return r.Err()
}

func TestRejectsDamage(t *testing.T) {
	data := encode(1, []section{{tag: "BYTE", bytes: []byte("hello")}, {tag: "FLTS", floats: ramp(100)}})
	r := NewReader(bytes.NewReader(data))
	r.Header()
	if r.Bytes("BYTE", 4); r.Err() == nil {
		t.Fatal("a section of 5 bytes was read as one of 4")
	}
	if err := readAll(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := readAll(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went unnoticed", cut, len(data))
		}
	}
	// Past the file header every bit is under a checksum.
	for i := fileHeaderLen; i < len(data); i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x10
		if err := readAll(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d went unnoticed", i)
		}
	}
	bad := bytes.Clone(data)
	bad[0] ^= 1
	if err := readAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong magic went unnoticed")
	}
}

// lyingHeader is a container whose float section claims n bytes and
// delivers 64.
func lyingHeader(n uint64) []byte {
	data := encode(1, []section{{tag: "BYTE", bytes: nil}, {tag: "FLTS", floats: []float64{}}})
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
	for _, claim := range []uint64{1 << 33, math.MaxUint64 - 3, math.MaxInt64 - 6} {
		data := lyingHeader(claim)
		for name, open := range map[string]func() io.Reader{
			"sized":   func() io.Reader { return bytes.NewReader(data) },
			"unsized": func() io.Reader { return plainReader{bytes.NewReader(data)} },
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

func FuzzBlobSections(f *testing.F) {
	good := encode(3, []section{{tag: "BYTE", bytes: []byte("hello")}, {tag: "FLTS", floats: ramp(40)}})
	f.Add(good, true)
	f.Add(good[:len(good)/2], false)
	f.Add(lyingHeader(1<<40), true)
	f.Add(lyingHeader(1<<40), false)
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
	})
}
