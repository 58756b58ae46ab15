package httpapi

// Replication endpoints: the pull side of retrieval/cluster's
// snapshot + WAL-tail catch-up. A replica bootstraps by fetching the
// primary's newest checkpoint generation — one file — then tails the WAL
// from its own document count. The endpoints are deliberately dumb —
// byte-serve the checkpoint file, JSON-serve the log suffix — so all
// replication policy (retries, resumes, re-snapshot on 410) lives in the
// replica, where it can be tested in-process. The checkpoint endpoint
// takes no name, so nothing outside the checkpoint can be asked for.

import (
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

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

// replicateCheckpoint streams the newest checkpoint generation file of
// ReplicateDir (shard.Latest) through http.ServeContent with the
// generation as its ETag: a replica resumes a cut download with Range +
// If-Range and gets the rest of the same file, or, if a checkpoint
// replaced it meanwhile, a 200 with the whole new one. A checkpoint that
// retires the file between listing and opening answers 404; the replica
// retries.
func (h *handler) replicateCheckpoint(w http.ResponseWriter, r *http.Request) {
	if h.opts.ReplicateDir == "" {
		writeError(w, http.StatusNotFound, "replication is not enabled on this server (no checkpoint directory)")
		return
	}
	if !h.enterReplication(w) {
		return
	}
	defer h.repl.leave()
	path, gen, err := shard.Latest(h.opts.ReplicateDir)
	var f *os.File
	if err == nil {
		f, err = os.Open(path)
	}
	if errors.Is(err, fs.ErrNotExist) {
		writeError(w, http.StatusNotFound, "no checkpoint to serve (a newer checkpoint may have retired it; retry)")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening the checkpoint: %v", err)
		return
	}
	defer f.Close()
	h.indexHeaders(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", strconv.Quote(strconv.Itoa(gen)))
	http.ServeContent(w, r, filepath.Base(path), time.Time{}, f)
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
