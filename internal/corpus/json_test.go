package corpus

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	model, err := PureSeparableModel(SeparableConfig{
		NumTopics: 3, TermsPerTopic: 8, Epsilon: 0.1, MinLen: 15, MaxLen: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(model, 20, rand.New(rand.NewSource(251)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTerms != c.NumTerms || len(back.Docs) != len(c.Docs) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", back.NumTerms, len(back.Docs), c.NumTerms, len(c.Docs))
	}
	for i := range c.Docs {
		a, b := &c.Docs[i], &back.Docs[i]
		if a.ID != b.ID || a.Length() != b.Length() || len(a.Terms) != len(b.Terms) {
			t.Fatalf("doc %d metadata mismatch", i)
		}
		for j := range a.Terms {
			if a.Terms[j] != b.Terms[j] || a.Counts[j] != b.Counts[j] {
				t.Fatalf("doc %d content mismatch at %d", i, j)
			}
		}
		if a.Spec.PrimaryTopic() != b.Spec.PrimaryTopic() {
			t.Fatalf("doc %d topic mismatch", i)
		}
	}
	// The round-tripped corpus builds the same matrix.
	m1 := TermDocMatrix(c, CountWeighting)
	m2 := TermDocMatrix(back, CountWeighting)
	if !slices.Equal(csrEntries(m1), csrEntries(m2)) {
		t.Fatal("matrices differ after round trip")
	}
}

func TestReadJSONValidation(t *testing.T) {
	cases := []string{
		``, // empty
		`{"num_terms":0,"num_docs":1}`,
		`{"num_terms":5,"num_docs":1}` + "\n" + `{"id":0,"terms":[1,2],"counts":[1]}`,          // length mismatch
		`{"num_terms":5,"num_docs":1}` + "\n" + `{"id":0,"terms":[7],"counts":[1]}`,            // out of universe
		`{"num_terms":5,"num_docs":1}` + "\n" + `{"id":0,"terms":[2,1],"counts":[1,1]}`,        // not ascending
		`{"num_terms":5,"num_docs":1}` + "\n" + `{"id":0,"terms":[1],"counts":[0]}`,            // zero count
		`{"num_terms":5,"num_docs":1}` + "\n" + `{"id":0,"length":9,"terms":[1],"counts":[2]}`, // wrong length
		`{"num_terms":5,"num_docs":2}` + "\n" + `{"id":0,"terms":[],"counts":[]}`,              // missing doc
	}
	for i, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadJSONEmptyCorpusAndDocs(t *testing.T) {
	in := `{"num_terms":4,"num_docs":1}` + "\n" + `{"id":0,"terms":[],"counts":[]}`
	c, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 1 || c.Docs[0].Length() != 0 {
		t.Fatalf("empty doc parse: %+v", c.Docs)
	}
	in = `{"num_terms":4,"num_docs":0}`
	c, err = ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 0 {
		t.Fatal("empty corpus should parse")
	}
}
