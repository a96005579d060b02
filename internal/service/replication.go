package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/mahif/mahif/internal/persist"
)

// handleStatus reports the server's role and replication position —
// the cheap poll the router's health checks and a catching-up client
// both use.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := StatusResponse{
		Role:     s.opts.Role,
		Version:  s.engine.Version(),
		Durable:  s.engine.Durable(),
		ReadOnly: s.opts.ReadOnly,
	}
	if s.opts.Replication != nil {
		st := s.opts.Replication.ReplicationStatus()
		resp.Replication = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleWALStream serves GET /v1/wal?from=<seq>[&to=<seq>]: the
// committed WAL records from seq `from` on, in the on-disk record
// framing, as one chunked octet stream. Without `to` the stream never
// ends — after the stored tail it follows live group-committed
// appends, flushing each record as it commits; with `to` it ends after
// that seq (the replica's bounded catch-up fetch). The client tears
// the stream down by closing the connection.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if s.opts.Store == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no WAL: this server is not store-backed"))
		return
	}
	q := r.URL.Query()
	from, err := queryInt(q.Get("from"), 1)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	to, err := queryInt(q.Get("to"), 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad to: %w", err))
		return
	}
	tr, err := s.opts.Store.TailFrom(uint64(from))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	defer tr.Close()
	s.walStreams.Add(1)

	// The server's WriteTimeout budgets one query response; a follower
	// stream is open-ended, so lift the deadline for this connection.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mahif-Wal-From", strconv.FormatUint(tr.NextSeq(), 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The request context — not the server's evaluation timeout —
	// bounds the stream: it lives until the client disconnects or the
	// server begins shutting down (StopStreams).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.streamStop:
			cancel()
		case <-ctx.Done():
		}
	}()
	var buf []byte
	for {
		if to > 0 && tr.NextSeq() > uint64(to) {
			return
		}
		seq, payload, err := tr.Next(ctx)
		if err != nil {
			// Client gone, server shutting down, or the store closed:
			// nothing useful can be written into a half-sent stream.
			return
		}
		buf = persist.AppendRecord(buf[:0], seq, payload)
		if _, err := w.Write(buf); err != nil {
			return
		}
		s.walStreamRecords.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleCheckpoint serves GET /v1/checkpoint[?version=<v>]: the raw
// self-validating checkpoint image (newest without a version; the
// replica asks for version=0 to get the base). The materialized
// version rides in the X-Mahif-Checkpoint-Version header.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.opts.Store == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no checkpoints: this server is not store-backed"))
		return
	}
	version := -1
	if raw := r.URL.Query().Get("version"); raw != "" {
		v, err := queryInt(raw, -1)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
			return
		}
		version = v
	}
	img, ver, err := s.opts.Store.CheckpointImage(version)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mahif-Checkpoint-Version", strconv.Itoa(ver))
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	_, _ = w.Write(img)
}
