package service

import (
	"fmt"
	"net/http"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/types"
)

// TemplateRequest is the body of POST /v1/template: a modification
// sequence whose SQL carries $name parameter slots, compiled once into
// a reusable template.
type TemplateRequest struct {
	Modifications []Modification `json:"modifications"`
	// Variant selects the algorithm (R, R+PS, R+DS, R+PS+DS); empty
	// means R+PS+DS. Results are variant-invariant.
	Variant string `json:"variant,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request
	// timeout for the one-time compilation.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// TemplateResponse is the body of a successful POST /v1/template.
type TemplateResponse struct {
	// ID names the compiled template for /v1/template/{id}/eval.
	ID string `json:"id"`
	// Params maps each $slot to its inferred value class ("numeric",
	// "string", "bool", or "any").
	Params map[string]string `json:"params"`
	// Version is the history version the artifact is compiled against.
	Version int `json:"version"`
	// TotalStatements and KeptStatements report the slicing outcome;
	// BindingIndependent/BindingDependent partition the kept
	// statements by whether they carry a $slot. A range template (one
	// replaced UPDATE or DELETE whose one slot bounds a WHERE range
	// conjunct col ⋈ $p) is sliced at each end of its slot's range and
	// reports its larger side's counts here, both sides in Sides.
	TotalStatements    int                `json:"total_statements"`
	KeptStatements     int                `json:"kept_statements"`
	BindingIndependent int                `json:"binding_independent"`
	BindingDependent   int                `json:"binding_dependent"`
	Sides              []TemplateSideInfo `json:"sides,omitempty"`
	// CompileMs is the one-time compilation cost each eval amortizes.
	CompileMs float64 `json:"compile_ms"`
}

// TemplateSideInfo is one side of a range template's original bound:
// the bindings Direction ("above" or "below") of Bound run a plan that
// keeps KeptStatements, BindingDependent of them carrying the slot.
type TemplateSideInfo struct {
	Bound            types.Value `json:"bound"`
	Direction        string      `json:"direction"`
	KeptStatements   int         `json:"kept_statements"`
	BindingDependent int         `json:"binding_dependent"`
}

// TemplateEvalRequest is the body of POST /v1/template/{id}/eval.
// Exactly one of Binding (one answer) and Bindings (a sweep) must be
// set. Values follow the engine's JSON value encoding: null, booleans,
// strings, and numbers (a fraction or exponent makes a float).
type TemplateEvalRequest struct {
	Binding  map[string]types.Value   `json:"binding,omitempty"`
	Bindings []map[string]types.Value `json:"bindings,omitempty"`
	// Workers bounds the sweep's evaluation parallelism (default
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// TimeoutMs tightens (never extends) the server's per-request
	// timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// MinVersion is the read-your-writes bound (see WhatIfRequest).
	// Templates recompile transparently when the history advances, so
	// a bounded eval answers against a version ≥ the bound.
	MinVersion int `json:"min_version,omitempty"`
	// Queries attaches aggregate queries evaluated per binding over the
	// historical and hypothetical states (see WhatIfRequest.Queries).
	Queries []string `json:"queries,omitempty"`
}

// TemplateBindingResult is one binding's outcome in a sweep. Exactly
// one of Delta and Error is meaningful.
type TemplateBindingResult struct {
	// Binding is the 1-based index into the request's bindings array.
	Binding    int                    `json:"binding"`
	Delta      delta.Set              `json:"delta,omitempty"`
	Aggregates []core.AggregateReport `json:"aggregates,omitempty"`
	Error      string                 `json:"error,omitempty"`
}

// TemplateEvalResponse is the body of a successful eval: Delta for a
// single binding, Results for a sweep.
type TemplateEvalResponse struct {
	Delta      delta.Set               `json:"delta,omitempty"`
	Aggregates []core.AggregateReport  `json:"aggregates,omitempty"`
	Results    []TemplateBindingResult `json:"results,omitempty"`
}

// handleTemplateCreate compiles a parameterized scenario through the
// server's session and registers the new template under a fresh id.
// Every POST compiles: two submissions of one template get two ids and
// two templates.
func (s *Server) handleTemplateCreate(w http.ResponseWriter, r *http.Request) {
	var req TemplateRequest
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
	tpl, err := s.sess.CompileTemplateCtx(ctx, mods, opts)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}

	id := fmt.Sprintf("t%d", s.tseq.Add(1))
	s.templates.Store(id, tpl)

	st := tpl.Stats()
	var sides []TemplateSideInfo
	for _, sd := range st.Sides {
		sides = append(sides, TemplateSideInfo{Bound: sd.Bound, Direction: sd.Direction, KeptStatements: sd.Kept, BindingDependent: sd.BindingDependent})
	}
	s.writeJSON(w, http.StatusOK, TemplateResponse{
		ID:                 id,
		Params:             tpl.Params(),
		Version:            st.Version,
		TotalStatements:    st.TotalStatements,
		KeptStatements:     st.KeptStatements,
		BindingIndependent: st.BindingIndependent,
		BindingDependent:   st.BindingDependent,
		Sides:              sides,
		CompileMs:          float64(st.CompileTime.Microseconds()) / 1000,
	})
}

// handleTemplateEval answers one binding or a binding sweep against a
// registered template. Binding mistakes (missing or unknown parameter,
// value-class mismatch) are 400s; an unknown template id is a 404.
func (s *Server) handleTemplateEval(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tpl, ok := s.templates.Lookup(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown template %q", id))
		return
	}
	var req TemplateEvalRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if (req.Binding == nil) == (len(req.Bindings) == 0) {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("exactly one of binding and bindings must be set"))
		return
	}
	queries, err := DecodeAggregateQueries(req.Queries)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	if err := s.waitMinVersion(ctx, req.MinVersion); err != nil {
		WriteError(w, statusFor(err), err)
		return
	}

	if req.Binding != nil {
		d, reps, err := tpl.EvalAggregatesCtx(ctx, req.Binding, queries)
		if err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		s.templateEvals.Add(1)
		s.writeJSON(w, http.StatusOK, TemplateEvalResponse{Delta: d, Aggregates: reps})
		return
	}

	results, err := tpl.EvalAggregatesBatchCtx(ctx, req.Bindings, queries, req.Workers)
	if err != nil && results == nil {
		WriteError(w, statusFor(err), err)
		return
	}
	// Like /v1/batch: a sweep cut short by the deadline returns the
	// partial results with the timeout status; per-binding errors
	// carry the detail.
	status := http.StatusOK
	if err != nil {
		status = statusFor(err)
	}
	resp := TemplateEvalResponse{Results: make([]TemplateBindingResult, len(results))}
	for i, res := range results {
		out := TemplateBindingResult{Binding: res.Binding + 1, Delta: res.Delta, Aggregates: res.Aggregates}
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
		resp.Results[i] = out
	}
	s.templateEvals.Add(int64(len(results)))
	s.writeJSON(w, status, resp)
}
