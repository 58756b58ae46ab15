package faultinject

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestFaultyFSTransparentByDefault(t *testing.T) {
	fs := NewFaultyFS(OS{}, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	if err := ReplaceFile(fs, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if fs.Injected() != 0 {
		t.Fatalf("injected %d ops with no schedule", fs.Injected())
	}
}

func TestFaultyFSShortWriteLeavesTornPrefix(t *testing.T) {
	fs := NewFaultyFS(OS{}, 42)
	fs.FailWrites(1.0, syscall.EIO, true)
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	f.Close()
	if err == nil {
		t.Fatal("write succeeded under 100% failure")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("error %v does not mark as injected EIO", err)
	}
	if n >= 10 {
		t.Fatalf("short write persisted %d of 10 bytes", n)
	}
	on, _ := os.ReadFile(path)
	if len(on) != n {
		t.Fatalf("disk holds %d bytes, write reported %d", len(on), n)
	}
}

func TestFaultyFSDiskFullBudget(t *testing.T) {
	fs := NewFaultyFS(OS{}, 7)
	fs.DiskFullAfter(8)
	dir := t.TempDir()
	if err := ReplaceFile(fs, filepath.Join(dir, "a"), []byte("12345")); err != nil {
		t.Fatalf("write within budget failed: %v", err)
	}
	err := ReplaceFile(fs, filepath.Join(dir, "b"), []byte("123456"))
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected ENOSPC, got %v", err)
	}
	// The crossing write tears at the budget boundary: 3 bytes landed,
	// in the temporary file; the name itself was never created.
	on, _ := os.ReadFile(filepath.Join(dir, "b"+TempSuffix))
	if _, serr := os.Stat(filepath.Join(dir, "b")); len(on) != 3 || !os.IsNotExist(serr) {
		t.Fatalf("torn prefix is %d bytes, want 3", len(on))
	}
	fs.Clear()
	if err := ReplaceFile(fs, filepath.Join(dir, "c"), []byte("ok again")); err != nil {
		t.Fatalf("write after Clear failed: %v", err)
	}
}

func TestFaultyFSDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []bool {
		fs := NewFaultyFS(OS{}, seed)
		fs.FailSyncs(0.5, nil)
		dir := t.TempDir()
		f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var outcomes []bool
		for i := 0; i < 32; i++ {
			outcomes = append(outcomes, f.Sync() == nil)
		}
		return outcomes
	}
	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	sawFail := false
	for _, ok := range a {
		if !ok {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("0.5 sync-failure schedule injected nothing in 32 ops")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"/v1/search":               ClassSearch,
		"/v1/search/batch":         ClassSearch,
		"/v1/docs":                 ClassDocs,
		"/v1/replicate/checkpoint": ClassReplicate,
		"/v1/replicate/wal":        ClassReplicate,
		"/readyz":                  ClassProbe,
		"/v1/status":               ClassProbe,
		"/metrics":                 ClassOther,
	}
	for path, want := range cases {
		if got := ClassOf(path); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestInjectorErrorAndRetryAfter(t *testing.T) {
	var in Injector
	in.Set(InjectSpec{Seed: 1, Faults: []Fault{
		{Class: ClassSearch, ErrRate: 1.0, Code: 503, RetryAfterSec: 7},
	}})
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search?q=x", nil))
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	// Non-matching class passes through.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/docs", nil))
	if rec.Code != 200 {
		t.Fatalf("docs status = %d, want 200", rec.Code)
	}
	if in.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", in.Injected())
	}
}

func TestInjectorAdminRoundTrip(t *testing.T) {
	var in Injector
	admin := httptest.NewServer(in.AdminHandler())
	defer admin.Close()

	spec := `{"seed":5,"faults":[{"class":"search","err_rate":1,"remaining":3}]}`
	resp, err := http.Post(admin.URL, "application/json", strings.NewReader(spec))
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST spec: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search", nil))
	if rec.Code != 503 {
		t.Fatalf("armed injector returned %d", rec.Code)
	}

	req, _ := http.NewRequest(http.MethodDelete, admin.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search", nil))
	if rec.Code != 200 {
		t.Fatalf("cleared injector still faulting: %d", rec.Code)
	}
}

func TestInjectorDeterministicBySeed(t *testing.T) {
	run := func() []int {
		var in Injector
		in.Set(InjectSpec{Seed: 123, Faults: []Fault{{ErrRate: 0.5}}})
		h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
		var codes []int
		for i := 0; i < 32; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/search", nil))
			codes = append(codes, rec.Code)
		}
		return codes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}
