package lsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
)

func TestSaveMetaRoundTrip(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 243)
	a := corpus.TermDocMatrix(c, corpus.LogWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	vocab := make([]string, ix.NumTerms())
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	ids := make([]string, ix.NumDocs())
	for i := range ids {
		ids[i] = "doc-" + string(rune('0'+i))
	}
	meta := &Meta{
		Vocab:           vocab,
		WeightingName:   "log",
		DocIDs:          ids,
		RemoveStopwords: true,
		Stemming:        true,
	}
	var buf bytes.Buffer
	if err := ix.SaveMeta(&buf, meta); err != nil {
		t.Fatal(err)
	}
	loaded, got, err := LoadMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("metadata lost through save/load")
	}
	if len(got.Vocab) != len(vocab) || got.Vocab[3] != vocab[3] {
		t.Fatalf("vocabulary mangled: %v", got.Vocab)
	}
	if got.WeightingName != "log" || !got.RemoveStopwords || !got.Stemming {
		t.Fatalf("pipeline config mangled: %+v", got)
	}
	if len(got.DocIDs) != ix.NumDocs() || got.DocIDs[0] != "doc-0" {
		t.Fatalf("doc IDs mangled: %v", got.DocIDs)
	}
	if loaded.K() != ix.K() || loaded.NumDocs() != ix.NumDocs() {
		t.Fatalf("index shape changed: k=%d docs=%d", loaded.K(), loaded.NumDocs())
	}
}

// Save writes wire v3 and nothing else, metadata or not: the container's
// magic and version lead the file, EncodedSize is its exact length, and
// loading it and saving again reproduces it byte for byte.
func TestSaveWritesV3ByteStable(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 245)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	vocab := make([]string, ix.NumTerms())
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d", i)
	}
	for name, meta := range map[string]*Meta{
		"plain": nil,
		"meta":  {Vocab: vocab, WeightingName: "count", Stemming: true},
	} {
		var first bytes.Buffer
		if err := ix.SaveMeta(&first, meta); err != nil {
			t.Fatal(err)
		}
		data := first.Bytes()
		if !bytes.HasPrefix(data, append(Magic[:], WireVersion, 0)) {
			t.Fatalf("%s: file starts % x, want the magic and version %d", name, data[:8], WireVersion)
		}
		if meta == nil && len(data) != ix.EncodedSize(nil) {
			t.Fatalf("%s: %d bytes written, EncodedSize says %d", name, len(data), ix.EncodedSize(nil))
		}
		loaded, gotMeta, err := LoadMeta(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("%s: metadata came back as %+v", name, gotMeta)
		}
		var second bytes.Buffer
		if err := loaded.SaveMeta(&second, gotMeta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), data) {
			t.Fatalf("%s: save, load, save changed the bytes", name)
		}
	}
}

func TestSaveMetaValidatesDimensions(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 244)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveMeta(&buf, &Meta{Vocab: []string{"only", "two"}}); err == nil {
		t.Fatal("expected vocabulary dimension error")
	}
	if err := ix.SaveMeta(&buf, &Meta{DocIDs: []string{"d0"}}); err == nil {
		t.Fatal("expected doc-ID dimension error")
	}
}

// A gob stream, which every build before wire v3 wrote, is refused unread
// with the command that converts it; a container of a version this build
// does not know is refused with the version and the supported range.
func TestLoadRejectsFutureVersion(t *testing.T) {
	for _, name := range []string{"index_v1.gob", "index_v2.gob"} {
		f, err := os.Open("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadIn(f, nil)
		f.Close()
		if !errors.Is(err, ErrNotContainer) || !strings.Contains(err.Error(), "lsiquery -upgrade") {
			t.Fatalf("%s loads with %v, want ErrNotContainer naming lsiquery -upgrade", name, err)
		}
	}
	golden, err := os.ReadFile("testdata/index_v3.lsi")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{minWireVersion - 1, WireVersion + 1} {
		binary.LittleEndian.PutUint16(golden[len(Magic):], v)
		_, err := LoadIn(bytes.NewReader(golden), nil)
		if want := fmt.Sprintf("version %d", v); err == nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "supported: 3..4") {
			t.Fatalf("error %v does not name %s and the supported range", err, want)
		}
	}
}
