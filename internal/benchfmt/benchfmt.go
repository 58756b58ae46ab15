// Package benchfmt is the schema of the BENCH*.json history files: the
// JSON records, a parser for `go test -bench` output, and a
// label-idempotent merge. No tool writes those files any more — bench/
// and BENCHMARK.json are the repository's one perf ledger — so nothing
// imports this package; it goes, with its tests, in a later change.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one measured result: a `go test -bench` line, or one
// synthesized by a recorder (e.g. a lsiload trace, whose quantiles land
// in Metrics).
type Benchmark struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op"`
	AllocsPerOp *float64           `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled recording session.
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Record is the whole perf-record file.
type Record struct {
	Runs []Run `json:"runs"`
}

// Parse extracts benchmark lines from go test -bench output, tracking
// the current "pkg:" header so names stay unique across packages.
// Repeated lines for one benchmark (-count > 1) are averaged; the
// iteration count keeps the latest run's value.
func Parse(r io.Reader) ([]Benchmark, error) {
	type acc struct {
		bench Benchmark
		n     int64
	}
	var order []string
	accs := map[string]*acc{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "pkg:" {
			pkg = fields[1]
			continue
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[len(fields)-1] == "FAIL" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX---FAIL" noise; not a result line
		}
		b := Benchmark{Pkg: pkg, Name: fields[0], Iterations: iters, NsPerOp: -1}
		for i := 3; i < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := val
				b.BytesPerOp = &v
			case "allocs/op":
				v := val
				b.AllocsPerOp = &v
			case "MB/s":
				// Throughput is derivable from ns/op; skip.
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		if b.NsPerOp < 0 {
			continue
		}
		key := pkg + "\x00" + b.Name
		a, ok := accs[key]
		if !ok {
			accs[key] = &acc{bench: b, n: 1}
			order = append(order, key)
			continue
		}
		// Average every measured column across repeated (-count) runs.
		n := float64(a.n)
		avg := func(prev, cur float64) float64 { return (prev*n + cur) / (n + 1) }
		a.bench.NsPerOp = avg(a.bench.NsPerOp, b.NsPerOp)
		if a.bench.BytesPerOp != nil && b.BytesPerOp != nil {
			*a.bench.BytesPerOp = avg(*a.bench.BytesPerOp, *b.BytesPerOp)
		}
		if a.bench.AllocsPerOp != nil && b.AllocsPerOp != nil {
			*a.bench.AllocsPerOp = avg(*a.bench.AllocsPerOp, *b.AllocsPerOp)
		}
		for k, cur := range b.Metrics {
			if prev, ok := a.bench.Metrics[k]; ok {
				a.bench.Metrics[k] = avg(prev, cur)
			} else {
				if a.bench.Metrics == nil {
					a.bench.Metrics = map[string]float64{}
				}
				a.bench.Metrics[k] = cur
			}
		}
		a.bench.Iterations = b.Iterations
		a.n++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Benchmark, len(order))
	for i, key := range order {
		out[i] = accs[key].bench
	}
	return out, nil
}

// Merge loads the record at path (missing or empty file = empty
// record), replaces or appends the run by label, and rewrites the file
// atomically. A file that exists but does not parse is refused, never
// overwritten.
func Merge(path string, run Run) error {
	var rec Record
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	case len(data) > 0:
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s is not a valid perf record: %w (fix or remove it; nothing was overwritten)", path, err)
		}
	}
	replaced := false
	for i := range rec.Runs {
		if rec.Runs[i].Label == run.Label {
			rec.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		rec.Runs = append(rec.Runs, run)
	}
	out, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
