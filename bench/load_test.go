package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when the writer sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPacedWriterTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	every := 100 * time.Millisecond
	// Batch 2 stalls for 250 ms: it holds the connection past the due
	// times of batches 3 and 4, which therefore start late and are
	// charged the wait. Batch 5 fails.
	took := map[int]time.Duration{2: 250 * time.Millisecond}
	var began []time.Duration
	r := pacedWriter(clk, start, every, start.Add(700*time.Millisecond), start.Add(100*time.Millisecond),
		func(i int) error {
			began = append(began, clk.now.Sub(start))
			d, ok := took[i]
			if !ok {
				d = 10 * time.Millisecond
			}
			clk.now = clk.now.Add(d)
			if i == 5 {
				return errors.New("shed")
			}
			return nil
		})
	wantBegan := []time.Duration{0, 100, 200, 450, 460, 500, 600}
	if len(began) != len(wantBegan) {
		t.Fatalf("sent %d batches, want %d (one per due time before the end)", len(began), len(wantBegan))
	}
	for i, w := range wantBegan {
		if began[i] != w*time.Millisecond {
			t.Errorf("batch %d began at %v, want %v", i, began[i], w*time.Millisecond)
		}
	}
	// Batch 0 was due during the warm-up and is not counted.
	if r.sent != 6 || len(r.ackMS) != 5 || r.late != 2 {
		t.Fatalf("sent %d acked %d late %d, want 6, 5, 2", r.sent, len(r.ackMS), r.late)
	}
	// due → ack: 10, 250, then the stalled ones 450+10−300 and 460+10−400, then 10.
	wantAck := []float64{10, 250, 160, 70, 10}
	for i, w := range wantAck {
		if r.ackMS[i] != w {
			t.Errorf("ack %d = %v ms, want %v (timed from when the batch was due)", i, r.ackMS[i], w)
		}
	}
}
