package idtable

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTablePacksAndReads(t *testing.T) {
	ids := []string{"a", "", "doc-2", "ünïcode", ""}
	tab := Of(ids)
	if tab.Len() != len(ids) || !slices.Equal(tab.Strings(), ids) {
		t.Fatalf("table reads %q, want %q", tab.Strings(), ids)
	}
	if got, want := tab.Bytes(), int64(len("a")+len("doc-2")+len("ünïcode")+4*len(ids)); got != want {
		t.Fatalf("Bytes = %d, want %d: the strings' bytes and 4 for each", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tab.At(3) }); n != 0 {
		t.Fatalf("At allocated %v times", n)
	}
	var empty Table
	if empty.Len() != 0 || len(empty.Strings()) != 0 || empty.Bytes() != 0 {
		t.Fatal("the zero Table is not empty")
	}
}

func id(i int) string { return "id-" + strconv.Itoa(i) }

// One appender and four readers, as the shard layer runs them (make race):
// a reader's snapshot reads the same strings for as long as it is kept,
// whatever is appended after it, and the arrays grow geometrically, not
// once a batch.
func TestSnapshotsNeverChangeUnderAppends(t *testing.T) {
	var cur atomic.Pointer[Table]
	first := Of([]string{id(0)})
	cur.Store(&first)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := cur.Load()
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < snap.Len(); i++ {
						if got := snap.At(i); got != id(i) {
							t.Errorf("a snapshot of %d reads %q at %d", snap.Len(), got, i)
							return
						}
					}
				}
			}
		}()
	}
	grows := 0
	for i := 1; i < 6000; i += 3 {
		prev := cur.Load()
		next, err := prev.Append(id(i), id(i+1), id(i+2))
		if err != nil {
			t.Error(err)
			break
		}
		if cap(next.data) != cap(prev.data) {
			grows++
		}
		cur.Store(&next)
	}
	close(stop)
	wg.Wait()
	if grows > 24 {
		t.Errorf("%d reallocations in 2,000 appends", grows)
	}
}
