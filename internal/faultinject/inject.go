package faultinject

// Injector is the whole-process chaos seam: an HTTP middleware that
// lsiserve arms behind the -chaos flag. Unlike the fault transport of
// retrieval/cluster's tests (held in-process), the Injector is driven
// remotely over an admin endpoint, so lsiload -faults can flap real
// nodes on a schedule while a real router routes around them.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Request classes group routes the way the serving tier shards its
// gates: a fault can target searches without touching replication, or
// probes without touching ingest.
const (
	ClassSearch    = "search"    // /v1/search, /v1/search/batch
	ClassDocs      = "docs"      // /v1/docs
	ClassReplicate = "replicate" // /v1/replicate/*
	ClassProbe     = "probe"     // /readyz, /healthz, /v1/status
	ClassOther     = "other"     // everything else
)

// ClassOf maps a URL path to its request class.
func ClassOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/search"):
		return ClassSearch
	case strings.HasPrefix(path, "/v1/docs"):
		return ClassDocs
	case strings.HasPrefix(path, "/v1/replicate/"):
		return ClassReplicate
	case path == "/readyz" || path == "/healthz" || path == "/v1/status":
		return ClassProbe
	default:
		return ClassOther
	}
}

// Fault scripts one server-side failure mode, JSON-encodable so
// schedules travel over the admin endpoint.
type Fault struct {
	// Class selects one request class (ClassSearch, ...); empty matches
	// every class. Admin and metrics routes are never faulted.
	Class string `json:"class,omitempty"`
	// LatencyMS delays matching requests by this many milliseconds
	// before any other effect.
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// ErrRate is the probability (0..1] a matching request is failed
	// with Code; decisions come from the spec's seeded PRNG in request
	// order. 0 with Drop unset means latency-only.
	ErrRate float64 `json:"err_rate,omitempty"`
	// Code is the status returned on an injected failure; 0 means 503.
	Code int `json:"code,omitempty"`
	// RetryAfterSec, when positive, sets a Retry-After header on
	// injected failures — the shape of a real shed.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Drop, when true, severs the connection without a response (the
	// client sees EOF), the server-side face of a partition. Drop wins
	// over ErrRate.
	Drop bool `json:"drop,omitempty"`
	// Remaining, when positive, bounds how many requests this fault
	// affects before expiring; 0 means unlimited.
	Remaining int `json:"remaining,omitempty"`
}

// InjectSpec is a complete server fault script: a PRNG seed plus an
// ordered fault list (first match wins, as in Transport).
type InjectSpec struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Injector applies an InjectSpec to incoming requests. The zero value
// is ready and transparent; Set arms it. Safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	faults   []Fault
	rng      func() float64 // seeded; nil until Set
	injected int64
}

// Set replaces the fault script, reseeding the decision PRNG so the
// same spec yields the same injection sequence.
func (in *Injector) Set(spec InjectSpec) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append([]Fault(nil), spec.Faults...)
	rng := newSeededFloat(spec.Seed)
	in.rng = rng
}

// Clear disarms the injector.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults, in.rng = nil, nil
}

// Injected reports how many requests have had a fault injected
// (latency-only matches count too).
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// newSeededFloat returns a deterministic float64-in-[0,1) source — a
// splitmix64 core, small enough to not drag math/rand state around.
func newSeededFloat(seed int64) func() float64 {
	s := uint64(seed)
	return func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

// plan consumes the first matching fault for a request, returning a
// snapshot and whether the fault's error branch fires.
func (in *Injector) plan(class string) (f Fault, fail, matched bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.faults {
		r := &in.faults[i]
		if r.Class != "" && r.Class != class {
			continue
		}
		if r.Remaining > 0 {
			r.Remaining--
			if r.Remaining == 0 {
				in.faults = append(in.faults[:i:i], in.faults[i+1:]...)
			}
		}
		fail = r.Drop || (r.ErrRate > 0 && in.rng != nil && in.rng() < r.ErrRate)
		in.injected++
		return *r, fail, true
	}
	return Fault{}, false, false
}

// Wrap returns h with the fault script applied in front of it. The
// admin and observability routes must be mounted outside the wrapped
// handler so a drop-everything fault cannot lock the operator out.
func (in *Injector) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, fail, ok := in.plan(ClassOf(r.URL.Path))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		if f.LatencyMS > 0 {
			select {
			case <-time.After(time.Duration(f.LatencyMS) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		if !fail {
			h.ServeHTTP(w, r)
			return
		}
		if f.Drop {
			// Sever the connection with no response — the client sees EOF,
			// like a partition closing mid-flight.
			if hj, okHj := w.(http.Hijacker); okHj {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// Fall back to an empty 502 when the writer can't hijack
			// (HTTP/2, test recorders).
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		code := f.Code
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		if f.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", f.RetryAfterSec))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": "injected fault"})
	})
}

// AdminHandler returns the /debug/faults endpoint: GET reads the
// current spec and injection count, POST installs a new InjectSpec,
// DELETE disarms. lsiserve mounts it only under -chaos.
func (in *Injector) AdminHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			in.mu.Lock()
			resp := struct {
				Faults   []Fault `json:"faults"`
				Injected int64   `json:"injected"`
			}{append([]Fault(nil), in.faults...), in.injected}
			in.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		case http.MethodPost:
			var spec InjectSpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, fmt.Sprintf("bad fault spec: %v", err), http.StatusBadRequest)
				return
			}
			in.Set(spec)
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			in.Clear()
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, POST, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
