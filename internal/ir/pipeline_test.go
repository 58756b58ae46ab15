package ir

import (
	"reflect"
	"testing"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The QUICK  brown-fox, jumps 42 times! Ünïcode läuft.")
	want := []string{"the", "quick", "brown", "fox", "jumps", "times", "ünïcode", "läuft"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize empty = %v", got)
	}
	if got := Tokenize("123 456 !!!"); len(got) != 0 {
		t.Fatalf("Tokenize digits = %v", got)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"automobile", "galaxy", "starship"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
	if len(defaultStopwords) < 100 {
		t.Fatalf("stopword list suspiciously small: %d", len(defaultStopwords))
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	a := v.IDOf("alpha")
	b := v.IDOf("beta")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if v.IDOf("alpha") != a {
		t.Fatal("ID not stable")
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.Term(a) != "alpha" || v.Term(b) != "beta" {
		t.Fatal("Term lookup wrong")
	}
	if id, ok := v.Lookup("beta"); !ok || id != b {
		t.Fatal("Lookup wrong")
	}
	if _, ok := v.Lookup("gamma"); ok {
		t.Fatal("Lookup of unknown term should be !ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Term")
		}
	}()
	v.Term(99)
}

func TestPipelineTerms(t *testing.T) {
	p := &Pipeline{RemoveStopwords: true, Stemming: true}
	got := p.Terms("The cars are driving on the motorways")
	// "the", "are", "on" are stopwords; stems: car, drive, motorway.
	want := []string{"car", "drive", "motorwai"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
	raw := &Pipeline{RemoveStopwords: false, Stemming: false}
	got = raw.Terms("The cars")
	if !reflect.DeepEqual(got, []string{"the", "cars"}) {
		t.Fatalf("raw Terms = %v", got)
	}
}

func TestPipelineProcess(t *testing.T) {
	p := &Pipeline{RemoveStopwords: true, Stemming: true}
	d := process(p, 7, "cars car CARS driving")
	if d.ID != 7 {
		t.Fatalf("ID = %d", d.ID)
	}
	// car ×3, drive ×1.
	carID, ok := p.Vocab.Lookup("car")
	if !ok {
		t.Fatal("car not in vocabulary")
	}
	if n := termCount(d, carID); n != 3 {
		t.Fatalf("car count = %d", n)
	}
	if d.Length() != 4 {
		t.Fatalf("Length = %d", d.Length())
	}
	// Empty document is fine.
	e := process(p, 8, "the of and")
	if len(e.Terms) != 0 || e.Length() != 0 {
		t.Fatalf("stopword-only doc not empty: %+v", e)
	}
}

func TestPipelineProcessAllSharedVocab(t *testing.T) {
	p := &Pipeline{RemoveStopwords: true, Stemming: true}
	c := processAll(p, []string{
		"galaxies and starships",
		"the starship galaxy",
	})
	if len(c.Docs) != 2 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	if c.NumTerms != p.Vocab.Size() {
		t.Fatalf("NumTerms %d != vocab %d", c.NumTerms, p.Vocab.Size())
	}
	// "galaxies"→galaxi? Porter: galaxies→galaxi; galaxy→galaxi. Shared stem.
	id, ok := p.Vocab.Lookup("galaxi")
	if !ok {
		t.Fatal("stem galaxi missing")
	}
	if termCount(c.Docs[0], id) != 1 || termCount(c.Docs[1], id) != 1 {
		t.Fatal("shared stem not counted in both docs")
	}
}

func TestPipelineNilVocabAutofill(t *testing.T) {
	p := &Pipeline{Stemming: true}
	d := process(p, 0, "hello worlds")
	if p.Vocab == nil || p.Vocab.Size() == 0 || len(d.Terms) != 2 {
		t.Fatal("nil vocab not autofilled")
	}
}
