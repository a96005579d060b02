package delta

import (
	"encoding/json"
	"fmt"
	"slices"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// JSON wire format (v1). A Result marshals as
//
//	{
//	  "relation": "orders",
//	  "columns":  [{"name": "id", "type": "int"}, ...],
//	  "minus":    [[1, 2.5, "x", true, null], ...],
//	  "plus":     [...]
//	}
//
// Tuples are arrays in column order; cells use the types.Value JSON
// encoding, which keeps int and float distinct (floats always carry a
// '.' or exponent). Empty sides are omitted. A Set marshals as a JSON
// object keyed by relation name. This format is the service contract
// of cmd/mahifd and is pinned by golden-file tests — extend it
// compatibly (add fields), never repurpose existing ones.

// wireColumn is one schema column on the wire.
type wireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// wireResult is the v1 layout Result.UnmarshalJSON decodes; the
// encoder (AppendJSON) writes the same fields directly.
type wireResult struct {
	Relation string         `json:"relation"`
	Columns  []wireColumn   `json:"columns"`
	Minus    []schema.Tuple `json:"minus,omitempty"`
	Plus     []schema.Tuple `json:"plus,omitempty"`
}

// AppendJSON appends r's compact v1 encoding to dst, the bytes
// json.Marshal writes for the wireResult layout. A nil r is null.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"relation":`...)
	dst = types.AppendJSONString(dst, r.Relation)
	dst = append(dst, `,"columns":`...)
	if r.Schema == nil {
		dst = append(dst, "null"...)
	} else {
		cols := r.Schema.Columns
		if cols == nil { // a column-less schema still lists its columns as []
			cols = []schema.Column{}
		}
		dst, _ = types.AppendJSONArray(dst, cols, appendColumn)
	}
	var err error
	if len(r.Minus) > 0 {
		dst, err = types.AppendJSONArray(append(dst, `,"minus":`...), r.Minus, (*schema.Tuple).AppendJSON)
	}
	if err == nil && len(r.Plus) > 0 {
		dst, err = types.AppendJSONArray(append(dst, `,"plus":`...), r.Plus, (*schema.Tuple).AppendJSON)
	}
	return append(dst, '}'), err
}

// appendColumn appends c as a wireColumn object.
func appendColumn(c *schema.Column, dst []byte) ([]byte, error) {
	dst = types.AppendJSONString(append(dst, `{"name":`...), c.Name)
	dst = types.AppendJSONString(append(dst, `,"type":`...), c.Type.String())
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler with the v1 wire format.
func (r *Result) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends s as a JSON object keyed by relation name, keys
// in byte order as encoding/json sorts a map's. A nil Set is null.
func (s Set) AppendJSON(dst []byte) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	var stack [4]string
	names := stack[:0]
	for n := range s {
		names = append(names, n)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = types.AppendJSONString(dst, n)
		dst = append(dst, ':')
		var err error
		if dst, err = s[n].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler with the v1 wire format.
func (s Set) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler for the v1 wire format,
// reconstructing the schema (including its column-lookup index).
func (r *Result) UnmarshalJSON(data []byte) error {
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	cols := make([]schema.Column, 0, len(w.Columns))
	for _, c := range w.Columns {
		k, err := types.ParseKind(c.Type)
		if err != nil {
			return fmt.Errorf("delta: column %s: %w", c.Name, err)
		}
		cols = append(cols, schema.Col(c.Name, k))
	}
	r.Relation = w.Relation
	r.Schema = schema.New(w.Relation, cols...)
	r.Minus = w.Minus
	r.Plus = w.Plus
	for _, side := range [][]schema.Tuple{r.Minus, r.Plus} {
		for _, t := range side {
			if len(t) != len(cols) {
				return fmt.Errorf("delta: %s: tuple arity %d does not match %d columns", w.Relation, len(t), len(cols))
			}
		}
	}
	return nil
}
