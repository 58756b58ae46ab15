package legacy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validManifestJSON is a minimal well-formed manifest used as the
// positive fuzz seed and by the table tests below: shard 0 holds globals
// 0 and 2 in one segment, shard 1 globals 1 and 3 in two.
const validManifestJSON = `{
  "version": 2,
  "format": "lsi-sharded",
  "generation": 3,
  "shards": 2,
  "rank": 3,
  "seed": 42,
  "numTerms": 10,
  "numDocs": 4,
  "sealEvery": 256,
  "idsFile": "ids-3.json",
  "segments": [
    [{"file": "seg-3-0-0.idx", "docs": 2, "compacted": true, "base": true, "annFile": "ann-3-0-0.ivf"}],
    [{"file": "seg-3-1-0.idx", "docs": 1, "compacted": true, "base": true},
     {"file": "seg-3-1-1.idx", "docs": 1, "compacted": true, "quantFile": "quant-3-1-1.qnt"}]
  ]
}`

// validV1ManifestJSON is validManifestJSON as version 1 wrote it, with
// every segment's globals listed.
const validV1ManifestJSON = `{
  "version": 1,
  "format": "lsi-sharded",
  "generation": 3,
  "shards": 2,
  "rank": 3,
  "seed": 42,
  "numTerms": 10,
  "numDocs": 4,
  "sealEvery": 256,
  "idsFile": "ids-3.json",
  "segments": [
    [{"file": "seg-3-0-0.idx", "docs": 2, "globals": [0, 2], "compacted": true, "base": true, "annFile": "ann-3-0-0.ivf"}],
    [{"file": "seg-3-1-0.idx", "docs": 1, "globals": [1], "compacted": true, "base": true},
     {"file": "seg-3-1-1.idx", "docs": 1, "globals": [3], "compacted": true, "quantFile": "quant-3-1-1.qnt"}]
  ]
}`

// FuzzParseManifest asserts the old-manifest parser is total: any byte
// string — corrupt, truncated, hostile — must yield either a valid
// manifest or a descriptive error, never a panic and never an
// input-independent allocation. An accepted manifest holds the round-robin
// numbering and the writer's file names, and re-encodes to itself. Seeds
// live in testdata/fuzz/FuzzParseManifest; run `go test
// -fuzz=FuzzParseManifest ./internal/legacy` to explore further.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(validManifestJSON))
	f.Add([]byte(validV1ManifestJSON))
	f.Add([]byte(validManifestJSON)[:60]) // truncated mid-object
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version": 99, "format": "lsi-sharded", "shards": 1}`))
	f.Add([]byte(`{"version": 1, "format": "lsi-sharded", "shards": 1, "rank": 1, "numTerms": 1, "numDocs": 9999999999, "idsFile": "x", "segments": [[]]}`))
	f.Add([]byte(`{"version": 1, "format": "lsi-sharded", "shards": 1, "rank": 1, "numTerms": 1, "numDocs": 1, "idsFile": "../../etc/passwd", "segments": [[{"file": "s", "docs": 1, "globals": [0]}]]}`))
	f.Add([]byte(strings.Replace(validManifestJSON, `"docs": 2`, `"docs": 3`, 1)))                      // a shard's docs off by one
	f.Add([]byte(strings.Replace(validManifestJSON, `"docs": 2,`, `"docs": 2, "globals": [0, 2],`, 1))) // version 2 carrying globals
	f.Add([]byte(strings.Replace(validV1ManifestJSON, `[0, 2]`, `[2, 0]`, 1)))                          // lists off the derived numbering
	f.Add([]byte(strings.Replace(validManifestJSON, `"docs": 1,`, `"docs": -1,`, 1)))                   // negative docs
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil manifest")
			}
			return
		}
		// A manifest that parses must satisfy the invariants the loader
		// relies on.
		if m.Shards < 1 || m.Rank < 1 || m.NumTerms < 1 || m.NumDocs < 0 {
			t.Fatalf("accepted out-of-range manifest: %+v", m)
		}
		if len(m.Segments) != m.Shards {
			t.Fatalf("accepted %d segment lists for %d shards", len(m.Segments), m.Shards)
		}
		if m.IDsFile != fmt.Sprintf("ids-%d.json", m.Generation) {
			t.Fatalf("accepted idsFile %q in generation %d", m.IDsFile, m.Generation)
		}
		for s, segs := range m.Segments {
			local := 0
			for i, e := range segs {
				if e.File != fmt.Sprintf("seg-%d-%d-%d.idx", m.Generation, s, i) ||
					e.ANNFile != "" && e.ANNFile != fmt.Sprintf("ann-%d-%d-%d.ivf", m.Generation, s, i) ||
					e.QuantFile != "" && e.QuantFile != fmt.Sprintf("quant-%d-%d-%d.qnt", m.Generation, s, i) {
					t.Fatalf("accepted shard %d segment %d named %q, %q, %q", s, i, e.File, e.ANNFile, e.QuantFile)
				}
				if m.Version == 1 && len(e.Globals) != e.Docs || m.Version != 1 && e.Globals != nil {
					t.Fatalf("accepted version %d, %d docs with %d globals", m.Version, e.Docs, len(e.Globals))
				}
				for j, g := range e.Globals {
					if g != s+m.Shards*(local+j) {
						t.Fatalf("accepted shard %d segment %d global %d at row %d", s, i, g, j)
					}
				}
				if e.Docs < 0 {
					t.Fatalf("accepted docs=%d", e.Docs)
				}
				local += e.Docs
			}
			// ⌈(NumDocs − s)/Shards⌉, clamped at 0.
			share := (m.NumDocs - s) / m.Shards
			if (m.NumDocs-s)%m.Shards > 0 {
				share++
			}
			if local != share {
				t.Fatalf("accepted shard %d holding %d documents of numDocs=%d", s, local, m.NumDocs)
			}
		}
		// Compared by encoding, where an empty globals list and an absent
		// one are the same.
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoded manifest parses to another value: %s, then %s (%v)", enc, enc2, err)
		}
	})
}

func TestParseManifestRejectsCorruption(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	// mutate returns the manifest src with fn applied to its JSON value.
	mutate := func(src string, fn func(map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal([]byte(src), &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	segment := func(m map[string]any, s, i int) map[string]any {
		return m["segments"].([]any)[s].([]any)[i].(map[string]any)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"valid", []byte(validManifestJSON), ""},
		{"valid version 1", []byte(validV1ManifestJSON), ""},
		{"truncated", []byte(validManifestJSON)[:80], "unexpected end"},
		{"not json", []byte("ceci n'est pas un manifeste"), "invalid character"},
		{"wrong format", mutate(validManifestJSON, func(m map[string]any) { m["format"] = "tarball" }), `format "tarball"`},
		{"future version", mutate(validManifestJSON, func(m map[string]any) { m["version"] = 99 }), "version 99"},
		{"zero shards", mutate(validManifestJSON, func(m map[string]any) { m["shards"] = 0; m["segments"] = []any{} }), "0 shards"},
		{"negative rank", mutate(validManifestJSON, func(m map[string]any) { m["rank"] = -1 }), "rank -1"},
		{"shard list mismatch", mutate(validManifestJSON, func(m map[string]any) { m["shards"] = 3 }), "segment lists"},
		{"traversal ids file", mutate(validManifestJSON, func(m map[string]any) { m["idsFile"] = "../ids.json" }),
			`idsFile "../ids.json", want "ids-3.json"`},
		{"doc count mismatch", mutate(validManifestJSON, func(m map[string]any) { m["numDocs"] = 7 }), "numDocs=7"},
		{"docs off by one", mutate(validManifestJSON, func(m map[string]any) { segment(m, 1, 1)["docs"] = 2 }),
			"shard 1 segment 1: docs=2, but numDocs=4 leaves shard 1 1 more documents"},
		{"negative docs", mutate(validManifestJSON, func(m map[string]any) { segment(m, 1, 0)["docs"] = -1 }),
			"shard 1 segment 0: docs=-1"},
		{"version 2 lists globals", mutate(validManifestJSON, func(m map[string]any) { segment(m, 0, 0)["globals"] = []any{0, 2} }),
			"shard 0 segment 0: 2 globals for docs=2 in version 2"},
		{"duplicate global", mutate(validV1ManifestJSON, func(m map[string]any) { segment(m, 1, 1)["globals"] = []any{1} }),
			"shard 1 segment 1: global 1 at row 0, round-robin placement puts 3 there"},
		{"global out of range", mutate(validV1ManifestJSON, func(m map[string]any) { segment(m, 0, 0)["globals"] = []any{0, 44} }),
			"shard 0 segment 0: global 44 at row 1, round-robin placement puts 2 there"},
		// A checkpoint names every file after its field and position, so
		// no two fields share a file and none is the manifest itself.
		{"segment file named twice", mutate(string(golden), func(m map[string]any) { segment(m, 0, 1)["file"] = "seg-1-0-0.idx" }),
			`shard 0 segment 1: files "seg-1-0-0.idx", "ann-1-0-1.ivf", "quant-1-0-1.qnt", want "seg-1-0-1.idx"`},
		{"ids file names a segment", mutate(string(golden), func(m map[string]any) { m["idsFile"] = "seg-1-0-0.idx" }),
			`idsFile "seg-1-0-0.idx", want "ids-1.json"`},
		{"segment file names the manifest", mutate(string(golden), func(m map[string]any) { segment(m, 1, 2)["file"] = manifestName }),
			`shard 1 segment 2: files "manifest.json", "", "", want "seg-1-1-2.idx"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := parseManifest(tc.data)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid manifest rejected: %v", err)
				}
				if m.Shards != 2 || m.NumDocs != 4 {
					t.Fatalf("parsed %+v", m)
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt manifest accepted: %+v", m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
