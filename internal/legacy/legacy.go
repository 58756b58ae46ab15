// Package legacy converts index files of earlier generations to the one
// the serving binaries read, wire v4 (internal/lsi), and saved directories
// of earlier layouts to one checkpoint generation file (retrieval/shard).
// It holds the module's only gob decoder, for the wire v1/v2 streams
// builds before v3 wrote as files and as a saved directory's segments, and
// the only reader of a directory's many files. Only the offline converter
// (lsiquery -upgrade) and tests import it.
package legacy

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/lsi"
)

const gobWireVersion = 2 // the newest wire version a gob stream carries

// indexWire is the gob message of wire versions 1 and 2 (gob matches
// fields by name, so v1 streams decode with the v2 fields left zero):
//
//	v1: numeric payload only.
//	v2: adds the optional self-containment metadata of lsi.Meta.
//
// Backend is set only in the streams an earlier build saved for its VSM
// baseline ("vsm", the term-document matrix in fields this struct does
// not name); Read refuses them.
type indexWire struct {
	Version  int
	Backend  string
	K        int
	NumTerms int
	Sigma    []float64
	UkRows   int
	UkData   []float64
	DocRows  int
	DocData  []float64

	Vocab           []string
	WeightingName   string
	DocIDs          []string
	RemoveStopwords bool
	Stemming        bool
}

// Read decodes a wire v1 or v2 gob stream into an index and its text
// layer, which is empty for v1.
func Read(r io.Reader) (*lsi.Index, *lsi.Meta, error) {
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, nil, fmt.Errorf("legacy: read: %w", err)
	}
	if wire.Version < 1 || wire.Version > gobWireVersion {
		return nil, nil, fmt.Errorf("legacy: read: gob index format version %d is not supported (supported: 1..%d)",
			wire.Version, gobWireVersion)
	}
	if wire.Backend != "" {
		return nil, nil, fmt.Errorf("legacy: read: the stream is a saved %s index, which this build no longer opens; "+
			"rebuild it from the document text with lsiserve -backend vsm or retrieval.BuildVSM", strings.ToUpper(wire.Backend))
	}
	ix, err := lsi.NewIndexFromParts(lsi.IndexParts{
		K: wire.K, NumTerms: wire.NumTerms, Sigma: wire.Sigma,
		UkRows: wire.UkRows, UkData: wire.UkData,
		DocRows: wire.DocRows, DocData: lsi.Narrow(wire.DocData),
	})
	if err != nil {
		return nil, nil, err
	}
	return ix, &lsi.Meta{Vocab: wire.Vocab, WeightingName: wire.WeightingName, DocIDs: wire.DocIDs,
		RemoveStopwords: wire.RemoveStopwords, Stemming: wire.Stemming}, nil
}

// Upgrade reads an index stream of any generation — gob v1 or v2, or the
// v3 or v4 container — and returns it as wire v4. text supplies the text
// layer of a stream that carries none (lsi.Meta's JSON form, as in an old
// directory's text.json) and must be nil for one that does. A VSM stream
// is refused.
func Upgrade(data []byte, text *lsi.Meta) ([]byte, error) {
	read := Read
	if bytes.HasPrefix(data, lsi.Magic[:]) {
		read = lsi.LoadMeta
	}
	ix, meta, err := read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	switch has := meta != nil && len(meta.Vocab) > 0; {
	case has && text != nil:
		return nil, errors.New("legacy: upgrade: the stream carries its own text layer; drop -text")
	case !has && (text == nil || len(text.Vocab) == 0):
		return nil, errors.New("legacy: upgrade: the stream carries no text layer (vocabulary); " +
			"pass -text FILE, a JSON text layer in the shape of a checkpoint's text.json")
	case text != nil:
		meta = text
	}
	return encode(ix, meta)
}

// encode is ix with its text layer as wire v4.
func encode(ix *lsi.Index, meta *lsi.Meta) ([]byte, error) {
	var buf bytes.Buffer
	err := ix.SaveMeta(&buf, meta)
	return buf.Bytes(), err
}

// UpgradePath converts the index file or directory in, saved by any
// build, to out, which must not exist yet, so neither in nor an index a
// server runs on is ever overwritten. A file becomes a wire v4 file as
// Upgrade returns it (text as there); a directory becomes a checkpoint
// directory of one generation file (upgradeDir), text supplying the text
// layer of one saved without (a bare shard checkpoint). Every file is synced before it is renamed into place, and
// out's directory after that.
func UpgradePath(in, out string, text *lsi.Meta) error {
	info, err := os.Stat(in)
	if err != nil {
		return fmt.Errorf("legacy: upgrade: %w", err)
	}
	if _, err := os.Lstat(out); err == nil {
		return fmt.Errorf("legacy: upgrade: %s already exists; the converter writes a new index", out)
	}
	fsys := faultinject.OS{}
	var data []byte
	if info.IsDir() {
		err = upgradeDir(in, out, text)
	} else if data, err = os.ReadFile(in); err == nil {
		if data, err = Upgrade(data, text); err == nil {
			err = faultinject.ReplaceFile(fsys, out, data)
		}
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(out))
	}
	return err
}

// upgradeSegment is an old directory's segment file as wire v4: a gob
// one rewritten, a container one as it is.
func upgradeSegment(data []byte) ([]byte, error) {
	if bytes.HasPrefix(data, lsi.Magic[:]) {
		return data, nil
	}
	ix, _, err := Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return encode(ix, nil)
}
