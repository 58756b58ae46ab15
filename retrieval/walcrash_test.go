package retrieval

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The real crash test: a child process builds a WAL'd index, acks each
// Add on stdout, and is SIGKILLed mid-stream — between acks and
// checkpoints, with no chance to flush or unwind. The parent then
// recovers from the checkpoint + WAL and asserts that every document
// the child acked before dying is present. This is the durability
// contract end to end: ack ⇒ fsync'd ⇒ survives SIGKILL.
func TestWALCrashReplaySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestWALCrashHelperProcess", "-test.v")
	cmd.Env = append(os.Environ(), "WAL_CRASH_HELPER=1", "WAL_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acks until the child has acked a healthy batch of docs past
	// at least one checkpoint, then SIGKILL it mid-flight.
	maxAck, ckpts := -1, 0
	sc := bufio.NewScanner(stdout)
	deadline := time.After(60 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
read:
	for {
		select {
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("child never reached the kill point (maxAck=%d ckpts=%d)", maxAck, ckpts)
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("child exited before the kill point (maxAck=%d ckpts=%d)", maxAck, ckpts)
			}
			switch {
			case strings.HasPrefix(line, "ACK "):
				n, err := strconv.Atoi(strings.TrimPrefix(line, "ACK "))
				if err != nil {
					t.Fatalf("bad ack line %q", line)
				}
				maxAck = n
			case strings.HasPrefix(line, "CKPT"):
				ckpts++
			}
			if ckpts >= 1 && maxAck >= 25 {
				break read
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	// The child kept running between the last line read and the kill:
	// the acks it wrote meanwhile are still in the pipe, and count.
	for line := range lines {
		if n, err := strconv.Atoi(strings.TrimPrefix(line, "ACK ")); err == nil {
			maxAck = n
		}
	}
	cmd.Wait()

	// Recover exactly as a restarted server would.
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ix, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatalf("reopening checkpoint after SIGKILL: %v", err)
	}
	defer ix.Close()
	replayed, err := ix.AttachWAL(waldir)
	if err != nil {
		t.Fatalf("WAL replay after SIGKILL: %v", err)
	}
	t.Logf("child acked %d docs across %d checkpoints; checkpoint+replay recovered %d (replayed %d)",
		maxAck+1, ckpts, ix.NumDocs(), replayed)

	// Every acked document must exist: acked doc i is global base+i with
	// ID "live-<i>". One unacked in-flight batch may also have landed
	// (logged, killed before the ack line) — allowed, bounded by 1.
	const base = walCrashBaseDocs
	if got := ix.NumDocs(); got < base+maxAck+1 {
		t.Fatalf("acked %d live docs but index holds %d (< %d): acked writes lost",
			maxAck+1, got, base+maxAck+1)
	} else if got > base+maxAck+2 {
		t.Fatalf("index holds %d docs, more than acked+1 in-flight (%d)", got, base+maxAck+2)
	}
	for i := 0; i <= maxAck; i++ {
		if got, want := ix.DocID(base+i), fmt.Sprintf("live-%04d", i); got != want {
			t.Fatalf("global %d: id %q, want %q", base+i, got, want)
		}
	}
	// And the recovered index still answers queries over them.
	res, err := ix.Search(context.Background(), "car engine", 5)
	if err != nil || len(res) == 0 {
		t.Fatalf("post-recovery search: %d results, err %v", len(res), err)
	}
}

// walCrashBaseDocs is the child's build-time corpus size.
const walCrashBaseDocs = 12

// TestWALCrashHelperProcess is the SIGKILLed child of
// TestWALCrashReplaySIGKILL, not a test on its own (it exits via
// os.Exit or the parent's kill, never normally under the parent).
func TestWALCrashHelperProcess(t *testing.T) {
	if os.Getenv("WAL_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestWALCrashReplaySIGKILL")
	}
	dir := os.Getenv("WAL_CRASH_DIR")
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ix, err := Build(largerCorpus(walCrashBaseDocs),
		WithRank(3), WithShards(2), WithAutoCompact(false), WithSealEvery(8), WithSeed(3))
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper build:", err)
		os.Exit(1)
	}
	if err := ix.SaveDir(data); err != nil {
		fmt.Fprintln(os.Stderr, "helper save:", err)
		os.Exit(1)
	}
	if _, err := ix.AttachWAL(waldir); err != nil {
		fmt.Fprintln(os.Stderr, "helper attach:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	for i := 0; i < 100000; i++ {
		_, err := ix.Add(ctx, []Document{{
			ID:   fmt.Sprintf("live-%04d", i),
			Text: "a shiny new car with a powerful engine cruising past stars",
		}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper add:", err)
			os.Exit(1)
		}
		fmt.Printf("ACK %d\n", i) // unbuffered: one write syscall per ack
		if i%10 == 9 {
			if err := ix.Checkpoint(data); err != nil {
				fmt.Fprintln(os.Stderr, "helper checkpoint:", err)
				os.Exit(1)
			}
			fmt.Println("CKPT")
		}
	}
	fmt.Println("DONE") // parent treats early exit as failure
}
