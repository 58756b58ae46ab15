// Package idtable packs the external document IDs of an index into one
// byte run with a uint32 end offset each: about 4 bytes an ID beyond its
// own bytes, where a []string costs a 16-byte header and an allocation
// per ID, each a pointer the collector scans.
//
// A Table is an immutable snapshot. Append returns a new one that may
// share its arrays, but writes only past the snapshot's lengths, which
// the snapshot never reads: one appender can publish snapshots (by atomic
// pointer) to any number of readers without a lock, and At can return a
// view of bytes that are never written again.
package idtable

import (
	"errors"
	"math"
	"unsafe"
)

// Table is a snapshot of a packed list of strings; the zero value is empty.
type Table struct {
	data []byte   // the strings, back to back
	ends []uint32 // ends[i]: where string i ends in data
}

// Of packs ss into a table of exactly their size. It panics past 4 GiB
// of string bytes, which no []string of IDs in memory reaches.
func Of(ss []string) Table {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	t, err := Table{data: make([]byte, 0, n), ends: make([]uint32, 0, len(ss))}.Append(ss...)
	if err != nil {
		panic(err)
	}
	return t
}

// Make is an empty table with room for n strings of size bytes in all.
func Make(n, size int) Table { return Table{data: make([]byte, 0, size), ends: make([]uint32, 0, n)} }

// Len is the number of strings in the table.
func (t Table) Len() int { return len(t.ends) }

// At is string i: a view of the table's bytes, made without allocating.
func (t Table) At(i int) string {
	lo := uint32(0)
	if i > 0 {
		lo = t.ends[i-1]
	}
	b := t.data[lo:t.ends[i]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Append returns the table with ss after its last string. The result
// shares the receiver's arrays while their capacity lasts, so call it on
// the newest table only, from one goroutine at a time; the receiver stays
// as it was. The arrays grow as append grows a slice, so a batch costs
// amortised O(len(ss) + its bytes). Append fails past 4 GiB of string
// bytes, the reach of the offsets.
func (t Table) Append(ss ...string) (Table, error) {
	n := len(t.data)
	for _, s := range ss {
		n += len(s)
	}
	if uint64(n) > math.MaxUint32 {
		return t, errors.New("idtable: more than 4 GiB of IDs")
	}
	for _, s := range ss {
		t.data = append(t.data, s...)
		t.ends = append(t.ends, uint32(len(t.data)))
	}
	return t, nil
}

// Strings returns the table as views of its bytes.
func (t Table) Strings() []string {
	out := make([]string, t.Len())
	for i := range out {
		out[i] = t.At(i)
	}
	return out
}

// Bytes is the heap the table's arrays hold, spare capacity included.
func (t Table) Bytes() int64 { return int64(cap(t.data)) + 4*int64(cap(t.ends)) }
