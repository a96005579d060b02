package service

import (
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/types"
)

// Response bodies are compact JSON. The hot ones — what-if, template
// eval and batch answers — encode through their own AppendJSON, which
// writes the bytes json.Marshal writes for their field tags without a
// reflection call per cell; every other body goes through json.Marshal.

// jsonAppender is a body with its own compact encoder.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// WriteJSON writes body as a compact JSON response with the given
// status and a trailing newline. The body is encoded in full before the
// header goes out, so a body that cannot be encoded answers 500 with an
// ErrorResponse, never a truncated 2xx; the encoding error is returned.
func WriteJSON(w http.ResponseWriter, status int, body any) error {
	buf, err := appendBody(make([]byte, 0, 4<<10), body)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = appendBody(buf[:0], ErrorResponse{Error: "encoding response: " + err.Error()})
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	return err
}

// WriteError writes err as an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	_ = WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

func appendBody(dst []byte, body any) ([]byte, error) {
	if a, ok := body.(jsonAppender); ok {
		return a.AppendJSON(dst)
	}
	b, err := json.Marshal(body)
	return append(dst, b...), err
}

// writeJSON is WriteJSON counting encoding failures for /metrics.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	if WriteJSON(w, status, body) != nil {
		s.encodeErrors.Add(1)
	}
}

// field opens an object member: a comma unless the member is the
// object's first, then the quoted name and a colon. A member's value
// never ends in '{', so the last byte tells which case holds.
func field(dst []byte, name string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

func appendReports(dst []byte, reps []core.AggregateReport) ([]byte, error) {
	return types.AppendJSONArray(dst, reps, (*core.AggregateReport).AppendJSON)
}

// appendMarshaler appends a cold member's encoding by its field tags
// (the stats types).
func appendMarshaler(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// AppendJSON appends the response's compact encoding.
func (r WhatIfResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := r.Delta.AppendJSON(field(append(dst, '{'), "delta"))
	if err == nil && len(r.Aggregates) > 0 {
		dst, err = appendReports(field(dst, "aggregates"), r.Aggregates)
	}
	if err == nil && r.Stats != nil {
		dst, err = appendMarshaler(field(dst, "stats"), r.Stats)
	}
	if err == nil && r.NaiveStats != nil {
		dst, err = appendMarshaler(field(dst, "naive_stats"), r.NaiveStats)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the response's compact encoding.
func (r TemplateEvalResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	var err error
	if len(r.Delta) > 0 {
		dst, err = r.Delta.AppendJSON(field(dst, "delta"))
	}
	if err == nil && len(r.Aggregates) > 0 {
		dst, err = appendReports(field(dst, "aggregates"), r.Aggregates)
	}
	if err == nil && len(r.Results) > 0 {
		dst, err = types.AppendJSONArray(field(dst, "results"), r.Results, (*TemplateBindingResult).AppendJSON)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the sweep entry's compact encoding.
func (r TemplateBindingResult) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendInt(field(append(dst, '{'), "binding"), int64(r.Binding), 10)
	var err error
	if len(r.Delta) > 0 {
		dst, err = r.Delta.AppendJSON(field(dst, "delta"))
	}
	if err == nil && len(r.Aggregates) > 0 {
		dst, err = appendReports(field(dst, "aggregates"), r.Aggregates)
	}
	if r.Error != "" {
		dst = types.AppendJSONString(field(dst, "error"), r.Error)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the response's compact encoding.
func (r BatchResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := types.AppendJSONArray(field(append(dst, '{'), "results"), r.Results, (*BatchScenarioResult).AppendJSON)
	if err == nil && r.Stats != nil {
		dst, err = appendMarshaler(field(dst, "stats"), r.Stats)
	}
	return append(dst, '}'), err
}

// AppendJSON appends the scenario outcome's compact encoding.
func (r BatchScenarioResult) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendInt(field(append(dst, '{'), "scenario"), int64(r.Scenario), 10)
	if r.Label != "" {
		dst = types.AppendJSONString(field(dst, "label"), r.Label)
	}
	var err error
	if len(r.Delta) > 0 {
		dst, err = r.Delta.AppendJSON(field(dst, "delta"))
	}
	if err == nil && len(r.Aggregates) > 0 {
		dst, err = appendReports(field(dst, "aggregates"), r.Aggregates)
	}
	if err == nil && r.Stats != nil {
		dst, err = appendMarshaler(field(dst, "stats"), r.Stats)
	}
	if r.Error != "" {
		dst = types.AppendJSONString(field(dst, "error"), r.Error)
	}
	return append(dst, '}'), err
}
