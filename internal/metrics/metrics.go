// Package metrics is the dependency-free instrumentation substrate
// behind lsiserve's GET /metrics endpoint: counters, gauges, and
// log-bucketed latency histograms, collected in a Registry that writes
// the Prometheus text exposition format (version 0.0.4).
//
// The package is deliberately small and allocation-conscious so it can
// sit on the query hot path: a Counter.Inc is one atomic add, a
// Histogram.Observe is two atomic adds plus a binary search over the
// bucket bounds, and nothing locks until scrape time. Callback metrics
// (GaugeFunc, CounterFunc) evaluate at scrape, which is how slow or
// derived readings — compaction debt, cache hit totals, epoch age —
// are exported without the instrumented subsystem importing this
// package.
//
// Registration happens once, at construction, and panics on misuse
// (duplicate series, name reuse across types, invalid metric names):
// those are programmer errors, caught by the first scrape of any test.
// Observation methods never panic and are safe for concurrent use.
//
// Histograms also answer quantile queries directly (Quantile, with the
// same linear-interpolation estimate Prometheus's histogram_quantile
// uses), which is what cmd/lsiload builds its p50/p99/p999 report on.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a series at
// registration time (e.g. route="search", shard="3").
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing counter. The zero value is
// usable, but series meant for exposition come from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is usable.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds d to the gauge (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with upper bounds
// (plus an implicit +Inf bucket) and tracks their sum — the Prometheus
// histogram model. Create with NewHistogram or Registry.Histogram.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sumBits atomic.Uint64
}

// NewHistogram builds a standalone histogram over the given ascending
// bucket upper bounds (a trailing +Inf bound is implied and must not be
// passed). Panics on empty, unsorted, or non-finite bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("metrics: histogram bounds must be finite (+Inf is implicit)")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; past the end = +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly within the containing bucket — the
// same estimate Prometheus's histogram_quantile produces. Observations
// in the +Inf bucket clamp to the highest finite bound. Returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			inBucket := h.buckets[i].Load()
			if inBucket == 0 {
				return h.bounds[i]
			}
			below := float64(cum - inBucket)
			frac := (rank - below) / float64(inBucket)
			if frac < 0 {
				frac = 0
			}
			return lo + (h.bounds[i]-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// ExponentialBuckets returns n ascending bucket bounds starting at
// start and multiplying by factor — the log-spaced scheme every latency
// histogram in the repo uses. Panics unless start > 0, factor > 1, and
// n >= 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets is the default latency bucket scheme, in seconds:
// 25 powers of two from 1µs to ~16.8s. The factor-2 spacing bounds the
// worst-case quantile interpolation error at 2x while keeping the
// per-series footprint at 26 cells — wide enough to resolve both a
// 236ns cache hit rounding into the first bucket and a multi-second
// overload tail.
var DefLatencyBuckets = ExponentialBuckets(1e-6, 2, 25)

// metricType is the exposition TYPE of a family.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family; exactly one of the
// value fields is set.
type series struct {
	labels  string // pre-rendered `name="value",...` without braces
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // CounterFunc / GaugeFunc
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
}

// Registry holds registered metrics and renders them in the Prometheus
// text format. Create with NewRegistry; methods are safe for concurrent
// use, though registration normally happens once at construction.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// ':', checked by the caller).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels validates and pre-renders a label set (sorted by name,
// values escaped) so scrape-time output needs no work per series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Name) || strings.ContainsRune(l.Name, ':') {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Name))
		}
		if i > 0 {
			if ls[i-1].Name == l.Name {
				panic(fmt.Sprintf("metrics: duplicate label name %q", l.Name))
			}
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// register adds a series under (name, labels), creating the family on
// first use and enforcing that a reused name keeps its type and help.
func (r *Registry) register(name, help string, typ metricType, labels []Label, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
		}
		if f.help != help {
			panic(fmt.Sprintf("metrics: %s registered with two different help strings", name))
		}
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, counterType, labels, &series{counter: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, gaugeType, labels, &series{gauge: g})
	return g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonically non-decreasing and safe for concurrent
// use — the idiom for exporting counters an existing subsystem already
// tracks (cache hits, compactions) without instrumenting its hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, counterType, labels, &series{fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time; fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, gaugeType, labels, &series{fn: fn})
}

// Histogram registers and returns a histogram series over the given
// bucket bounds (see NewHistogram; nil picks DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	h := NewHistogram(bounds)
	r.register(name, help, histogramType, labels, &series{hist: h})
	return h
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text format:
// backslash, newline, and double quote.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects
// (shortest round-trippable form; infinities as +Inf/-Inf).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// sampleLine writes one `name{labels} value` line.
func sampleLine(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// joinLabels merges a pre-rendered label string with one extra pair
// (used for histogram `le` labels).
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (families in registration order, one HELP and
// TYPE line each). Histogram buckets are cumulative and always include
// the +Inf bucket, whose value equals the family's _count — the
// invariants the exposition tests pin.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.order {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				sampleLine(&b, f.name, s.labels, strconv.FormatInt(s.counter.Value(), 10))
			case s.gauge != nil:
				sampleLine(&b, f.name, s.labels, formatValue(s.gauge.Value()))
			case s.fn != nil:
				sampleLine(&b, f.name, s.labels, formatValue(s.fn()))
			case s.hist != nil:
				h := s.hist
				// Load each bucket once; deriving count and +Inf from the
				// same loads keeps the cumulativity and bucket/_count
				// invariants exact even under concurrent Observes.
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					le := `le="` + formatValue(bound) + `"`
					sampleLine(&b, f.name+"_bucket", joinLabels(s.labels, le), strconv.FormatInt(cum, 10))
				}
				cum += h.buckets[len(h.bounds)].Load()
				sampleLine(&b, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`), strconv.FormatInt(cum, 10))
				sampleLine(&b, f.name+"_sum", s.labels, formatValue(h.Sum()))
				sampleLine(&b, f.name+"_count", s.labels, strconv.FormatInt(cum, 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
