package httpapi

// Replication endpoints: the pull side of retrieval/cluster's
// snapshot + WAL-tail catch-up. A replica bootstraps by fetching the
// primary's manifest, then every file the manifest names, then tails
// the WAL from its own document count. The endpoints are deliberately
// dumb — byte-serve checkpoint files, JSON-serve the log suffix — so
// all replication policy (retries, generation checks, re-snapshot on
// 410) lives in the replica, where it can be tested in-process.
//
// Safety: /v1/replicate/file serves only bare names in the checkpoint
// vocabulary — the two fixed names manifest.json and text.json, and the
// generation-stamped names shard.FileGeneration recognises
// (ids-<g>.json, seg-<g>-<s>-<i>.idx and a segment's sidecars
// ann-<g>-<s>-<i>.ivf, quant-<g>-<s>-<i>.qnt) — out of
// Options.ReplicateDir: no separators, no traversal, nothing outside the
// checkpoint. A 404 for a name the
// manifest listed means a newer checkpoint retired that generation
// mid-pull; the replica re-fetches the manifest and starts over.

import (
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/retrieval"
	"repro/retrieval/shard"
)

// ReplicateWALResponse is the body of GET /v1/replicate/wal: every
// logged document with global position >= From, in global order. Apply
// it to a replica holding [0, From) and the replica is caught up to the
// primary's acked writes at the time of the call (the X-Index-Docs
// header on the response).
type ReplicateWALResponse struct {
	From int                  `json:"from"`
	Docs []retrieval.Document `json:"docs"`
}

func (h *handler) replicateManifest(w http.ResponseWriter, r *http.Request) {
	h.serveReplicaFile(w, r, "manifest.json")
}

func (h *handler) replicateFile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if _, stamped := shard.FileGeneration(name); !stamped && name != shard.ManifestName && name != "text.json" {
		writeError(w, http.StatusBadRequest, "%q is not a checkpoint file name", name)
		return
	}
	h.serveReplicaFile(w, r, name)
}

// serveReplicaFile streams one checkpoint file from ReplicateDir. The
// freshness headers ride along so a replica can detect a checkpoint
// racing its pull without an extra round trip. Files are served via
// http.ServeContent, so Range requests work: a replica whose download
// was cut mid-file resumes from its last byte instead of restarting a
// multi-GB fetch (generation-stamped data files never mutate in place,
// making a resumed range safe; for the mutable manifest.json/text.json
// the replica checks X-Index-Generation instead).
func (h *handler) serveReplicaFile(w http.ResponseWriter, r *http.Request, name string) {
	if h.opts.ReplicateDir == "" {
		writeError(w, http.StatusNotFound, "replication is not enabled on this server (no checkpoint directory)")
		return
	}
	if !h.enterReplication(w) {
		return
	}
	defer h.repl.leave()
	f, err := os.Open(filepath.Join(h.opts.ReplicateDir, name))
	if errors.Is(err, fs.ErrNotExist) {
		writeError(w, http.StatusNotFound, "checkpoint file %q does not exist (a newer checkpoint may have retired it; re-fetch the manifest)", name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening checkpoint file: %v", err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stat checkpoint file: %v", err)
		return
	}
	h.indexHeaders(w)
	if filepath.Ext(name) == ".json" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	http.ServeContent(w, r, name, st.ModTime(), f)
}

const noWAL = "this server has no write-ahead log attached"

func (h *handler) replicateWAL(w http.ResponseWriter, r *http.Request) {
	live, ok := h.ret.(Live)
	if !ok {
		writeError(w, http.StatusNotFound, noWAL)
		return
	}
	if !h.enterReplication(w) {
		return
	}
	defer h.repl.leave()
	fromStr := r.URL.Query().Get("from")
	from, err := strconv.Atoi(fromStr)
	if err != nil || from < 0 {
		writeError(w, http.StatusBadRequest, "\"from\" must be a non-negative document position, got %q", fromStr)
		return
	}
	docs, err := live.TailWAL(from)
	switch {
	case errors.Is(err, retrieval.ErrNoWAL):
		writeError(w, http.StatusNotFound, noWAL)
		return
	case errors.Is(err, retrieval.ErrWALGone):
		// The replica is behind the last rotation: it must re-pull a
		// snapshot and tail from the snapshot's document count.
		writeError(w, http.StatusGone, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if docs == nil {
		docs = []retrieval.Document{}
	}
	h.indexHeaders(w)
	writeJSON(w, http.StatusOK, ReplicateWALResponse{From: from, Docs: docs})
}
