package service

import (
	"fmt"
	"net/http"

	"github.com/mahif/mahif/internal/howto"
)

// HowtoRequest is the body of POST /v1/howto: a parameterized
// modification sequence ($name slots), a target condition over an
// aggregate delta, and the search configuration.
type HowtoRequest struct {
	// Modifications is the scenario; its statements carry the $slots
	// the search binds.
	Modifications []Modification `json:"modifications"`
	// Target is the desired effect (see howto.Target): an aggregate
	// query, an optional group selector, a column, and a condition
	// "<=", ">=", or "==" against a value.
	Target howto.Target `json:"target"`
	// Bounds gives each parameter's search interval (default ±1e6).
	Bounds map[string]howto.Range `json:"bounds,omitempty"`
	// Variant selects the engine options used for searching and for
	// the certificate's fresh what-if (empty means R+PS+DS).
	Variant string `json:"variant,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request
	// timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// MinVersion is the read-your-writes bound (see WhatIfRequest).
	MinVersion int `json:"min_version,omitempty"`
}

// HowtoResponse is the body of a successful POST /v1/howto: the
// minimal-magnitude satisfying binding with its differential
// certificate (see howto.Result).
type HowtoResponse struct {
	Result *howto.Result `json:"result"`
}

// handleHowto answers a how-to query: search the scenario's binding
// space for the minimal-magnitude parameters that achieve the target,
// and certify the answer with a fresh what-if. An unreachable target
// or an unsupported search shape (non-linear multi-slot) is a 400 with
// the detail.
func (s *Server) handleHowto(w http.ResponseWriter, r *http.Request) {
	var req HowtoRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	mods, err := DecodeModifications(req.Modifications)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	opts, ok := variantOptions(req.Variant)
	if !ok {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown variant %q (want R, R+PS, R+DS, R+PS+DS)", req.Variant))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	if err := s.waitMinVersion(ctx, req.MinVersion); err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	res, err := howto.Search(ctx, s.engine, mods, req.Target, howto.Options{
		Bounds: req.Bounds,
		Engine: &opts,
	})
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, HowtoResponse{Result: res})
}
