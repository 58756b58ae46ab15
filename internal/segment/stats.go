package segment

import "sync/atomic"

// ProbeStats records the work one Search performed across its segment
// set — the per-query half of the tier accounting; Counters is the
// lifetime half.
type ProbeStats struct {
	// Probed counts segments answered through their IVF quantizer; Cells
	// and Docs total the cells probed and candidates scored in them.
	Probed int
	Cells  int
	Docs   int
	// QuantSegs counts segments whose candidates were scored through the
	// int8 tier; QuantDocs totals the documents those scans touched, and
	// Reranked the stage-2 candidates rescored with exact float kernels.
	QuantSegs int
	QuantDocs int
	Reranked  int
	// ExactDocs counts documents scored purely in float64 — segments with
	// no sidecars (live fold-ins, tiny or reloaded segments) plus every
	// segment when the options disable both tiers.
	ExactDocs int
}

// Counters accumulates ProbeStats over an index's lifetime: the one
// place tier work is counted, read by Stats and /metrics. The zero value
// is ready; Add and Totals are safe for concurrent use.
type Counters struct {
	annSearches, annCells, annDocs         atomic.Int64
	quantSearches, quantDocs, quantReranks atomic.Int64
}

// Totals is a snapshot of Counters. A search counts once per tier it
// used, however many segments it crossed.
type Totals struct {
	AnnSearches, AnnCells, AnnDocs         int64
	QuantSearches, QuantDocs, QuantReranks int64
}

// Add folds one search's record into the lifetime counters.
func (c *Counters) Add(st ProbeStats) {
	if st.Probed > 0 {
		c.annSearches.Add(1)
		c.annCells.Add(int64(st.Cells))
		c.annDocs.Add(int64(st.Docs))
	}
	if st.QuantSegs > 0 {
		c.quantSearches.Add(1)
		c.quantDocs.Add(int64(st.QuantDocs))
		c.quantReranks.Add(int64(st.Reranked))
	}
}

// Totals snapshots the counters.
func (c *Counters) Totals() Totals {
	return Totals{
		AnnSearches: c.annSearches.Load(), AnnCells: c.annCells.Load(), AnnDocs: c.annDocs.Load(),
		QuantSearches: c.quantSearches.Load(), QuantDocs: c.quantDocs.Load(), QuantReranks: c.quantReranks.Load(),
	}
}

// Tiers totals the sidecar coverage of a segment set: AnnSegs segments
// carry an IVF quantizer covering AnnDocs documents (AnnDocs over the
// corpus size is the fraction served sublinearly); QuantSegs, QuantDocs
// and QuantBytes are the same for the int8 shadows and their codes +
// scales.
type Tiers struct {
	AnnSegs, AnnDocs     int
	QuantSegs, QuantDocs int
	QuantBytes           int64
}

// Add folds one segment's sidecars into the totals.
func (t *Tiers) Add(s *Segment) {
	if s.Ann != nil {
		t.AnnSegs++
		t.AnnDocs += s.Len()
	}
	if s.Quant != nil {
		t.QuantSegs++
		t.QuantDocs += s.Len()
		t.QuantBytes += s.Quant.Bytes()
	}
}

// MemoryBytes estimates the memory the segment holds: latent rows
// (float32), singular values, norms, raw documents and both sidecars,
// plus the basis matrix when withBasis is set — fold-in segments share
// the basis of the index they were folded against, so a caller walking
// several segments passes true once per distinct basis. mapped is the
// part of total served from mapped files: the index file the rows and
// (counted with the basis) the basis are views of, and the sidecars the
// tiers were read from.
func (s *Segment) MemoryBytes(withBasis bool) (total, mapped int64) {
	k, m := int64(s.Ix.K()), int64(s.Len())
	total = 4*m*k + 8*(k+m) + 16*int64(s.Raw.NNZ())
	if withBasis {
		total += 8 * int64(s.Ix.NumTerms()) * k
	}
	mapped = s.Ix.MappedBytes(withBasis)
	if ann := s.Ann; ann != nil {
		nlist := int64(ann.NList())
		total += 8*nlist*int64(ann.Dim()) + 8*nlist + 8*(nlist+1) + 4*m
		mapped += ann.MappedBytes()
	}
	if s.Quant != nil {
		total += s.Quant.Bytes()
		mapped += s.Quant.MappedBytes()
	}
	return total, mapped
}
