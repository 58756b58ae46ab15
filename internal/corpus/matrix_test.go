package corpus

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// termDocMatrixCOO is TermDocMatrix as first written, through the COO
// accumulator: the definition the direct row fill must reproduce.
func termDocMatrixCOO(c *Corpus, w Weighting) *sparse.CSR {
	m := len(c.Docs)
	coo := sparse.NewCOO(c.NumTerms, m)
	df := make([]int, c.NumTerms)
	for _, d := range c.Docs {
		for _, t := range d.Terms {
			df[t]++
		}
	}
	for j, d := range c.Docs {
		for i, t := range d.Terms {
			count := float64(d.Counts[i])
			var v float64
			switch w {
			case CountWeighting:
				v = count
			case BinaryWeighting:
				v = 1
			case LogWeighting:
				v = 1 + math.Log(count)
			case TFIDFWeighting:
				v = count * math.Log(float64(m)/float64(df[t]))
			}
			coo.Add(t, j, v)
		}
	}
	return coo.ToCSR()
}

type csrEntry struct {
	i, j int
	bits uint64
}

func csrEntries(m *sparse.CSR) []csrEntry {
	var out []csrEntry
	for i := 0; i < m.Rows(); i++ {
		m.RowIter(i, func(j int, v float64) { out = append(out, csrEntry{i, j, math.Float64bits(v)}) })
	}
	return out
}

func TestTermDocMatrixMatchesCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const numTerms = 40
	c := &Corpus{NumTerms: numTerms}
	for j := 0; j < 300; j++ {
		d := Document{ID: j}
		switch j {
		case 7: // nothing at all
		case 11: // repeated and descending term IDs
			d.Terms, d.Counts = []int{30, 12, 30, 5, 12, 30}, []int{1, 2, 3, 4, 5, 6}
		case 13: // entries that cancel to zero under count and tf-idf weighting
			d.Terms, d.Counts = []int{9, 20, 9, 21, 20}, []int{2, 3, -2, 1, -3}
		default:
			for t := 0; t < numTerms-2; t++ {
				if rng.Intn(4) == 0 {
					d.Terms = append(d.Terms, t)
					d.Counts = append(d.Counts, 1+rng.Intn(5))
				}
			}
		}
		// Term 38 is in every document, so its idf — and every tf-idf
		// entry of its row — is exactly zero; term 39 is in none.
		d.Terms, d.Counts = append(d.Terms, 38), append(d.Counts, 1+j%3)
		c.Docs = append(c.Docs, d)
	}
	for _, w := range []Weighting{CountWeighting, BinaryWeighting, LogWeighting, TFIDFWeighting} {
		t.Run(w.String(), func(t *testing.T) {
			got, want := TermDocMatrix(c, w), termDocMatrixCOO(c, w)
			if gr, gc := got.Dims(); gr != numTerms || gc != len(c.Docs) {
				t.Fatalf("Dims = %dx%d", gr, gc)
			}
			ge, we := csrEntries(got), csrEntries(want)
			if got.NNZ() != want.NNZ() || len(ge) != len(we) {
				t.Fatalf("NNZ = %d (%d iterated), COO build has %d", got.NNZ(), len(ge), want.NNZ())
			}
			for k := range we {
				if ge[k] != we[k] {
					t.Fatalf("entry %d = %+v, COO build has %+v", k, ge[k], we[k])
				}
			}
			if w == TFIDFWeighting && (slices.ContainsFunc(ge, func(e csrEntry) bool { return e.i == 38 }) || got.At(9, 13) != 0) {
				t.Fatal("zero tf-idf entries were stored")
			}
		})
	}
}

// BenchmarkTermDocMatrix builds the repository benchmark's matrix: 51,200
// documents of the 64-topic separable model, 1,600 × 51,200 with ~1.6 M
// nonzeros.
func BenchmarkTermDocMatrix(b *testing.B) {
	const topics, minLen, maxLen = 64, 50, 100
	m, err := PureSeparableModel(SeparableConfig{
		NumTopics: topics, TermsPerTopic: 25, Epsilon: 0.1, MinLen: minLen, MaxLen: maxLen,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Sampler = &RoundRobinSampler{NumTopics: topics, MinLen: minLen, MaxLen: maxLen}
	c, err := Generate(m, topics*800, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TermDocMatrix(c, CountWeighting)
	}
}
