package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// The oracle for the wire appenders is json.Marshal over the reflection
// path. Values, tuples, Results, Sets and reports are rebuilt below as
// plain structs, slices and maps with json tags and no methods
// (mirror*); the envelopes, which have an AppendJSON but no
// MarshalJSON, are marshalled as they are, by their own field tags.

type mirrorColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type mirrorResult struct {
	Relation string         `json:"relation"`
	Columns  []mirrorColumn `json:"columns"`
	Minus    [][]any        `json:"minus,omitempty"`
	Plus     [][]any        `json:"plus,omitempty"`
}

type mirrorRow struct {
	Group        []any `json:"group"`
	Historical   []any `json:"historical"`
	Hypothetical []any `json:"hypothetical"`
	Delta        []any `json:"delta"`
}

type mirrorReport struct {
	Query        string      `json:"query"`
	GroupColumns []string    `json:"group_columns"`
	AggColumns   []string    `json:"agg_columns"`
	Rows         []mirrorRow `json:"rows"`
}

// mirrorValue spells the v1 cell rules with encoding/json's own types:
// a float is a json.Number with ".0" added when integral, and a
// non-finite float stays a float64, which json.Marshal refuses.
func mirrorValue(v types.Value) any {
	switch v.Kind() {
	case types.KindInt:
		return v.AsInt()
	case types.KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return f
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return json.Number(s)
	case types.KindString:
		return v.AsString()
	case types.KindBool:
		return v.AsBool()
	}
	return nil
}

func mirrorTuple(t schema.Tuple) []any {
	if t == nil {
		return nil
	}
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = mirrorValue(v)
	}
	return out
}

func mirrorTuples(ts []schema.Tuple) [][]any {
	out := make([][]any, len(ts))
	for i, t := range ts {
		out[i] = mirrorTuple(t)
	}
	return out
}

func mirrorDelta(r *delta.Result) *mirrorResult {
	if r == nil {
		return nil
	}
	m := &mirrorResult{Relation: r.Relation, Minus: mirrorTuples(r.Minus), Plus: mirrorTuples(r.Plus)}
	if r.Schema != nil {
		m.Columns = []mirrorColumn{}
		for _, c := range r.Schema.Columns {
			m.Columns = append(m.Columns, mirrorColumn{c.Name, c.Type.String()})
		}
	}
	return m
}

func mirrorSet(s delta.Set) map[string]*mirrorResult {
	if s == nil {
		return nil
	}
	out := make(map[string]*mirrorResult, len(s))
	for n, r := range s {
		out[n] = mirrorDelta(r)
	}
	return out
}

func mirrorAggregate(r *core.AggregateReport) mirrorReport {
	m := mirrorReport{Query: r.Query, GroupColumns: r.GroupColumns, AggColumns: r.AggColumns}
	if r.Rows != nil {
		m.Rows = make([]mirrorRow, len(r.Rows))
		for i, row := range r.Rows {
			m.Rows[i] = mirrorRow{mirrorTuple(row.Group), mirrorTuple(row.Historical), mirrorTuple(row.Hypothetical), mirrorTuple(row.Delta)}
		}
	}
	return m
}

// wireGen draws wire values from an edge pool — NULL, ±0, ±2^53 and
// its neighbours, 1 vs 1.0, 1e30, HTML characters, control characters,
// U+2028, invalid UTF-8, nil report sides, nil Sets — with a fuzzer's
// string, float and int mixed in.
type wireGen struct {
	r         *rand.Rand
	s         string
	f         float64
	i         int64
	nonFinite bool // a float cell may be NaN or ±Inf
	// maxRelations bounds a Set. The fuzz target keeps it at one: a
	// Set's map order is random, so its sort's coverage would differ
	// between runs of one input and stall the fuzzer's minimizer.
	maxRelations int
}

var wireStrings = []string{"", "orders", "<&>", `a"b\c`, "\x00\x1f\x7f", "\b\f\n\r\t", "\u2028\u2029", "\xff", "a\xc3", "héllo", "日本", "😀"}

func (g *wireGen) str() string {
	switch n := g.r.IntN(len(wireStrings) + 2); n {
	case len(wireStrings):
		return g.s
	case len(wireStrings) + 1:
		b := make([]byte, g.r.IntN(8))
		for i := range b {
			b[i] = byte(g.r.IntN(256))
		}
		return string(b)
	default:
		return wireStrings[n]
	}
}

func (g *wireGen) float() float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, -1.5, 1 << 53, -(1 << 53), 1<<53 + 2, 1e30, 1e21, 1e20, 1e-7, 5e-324, math.MaxFloat64, 0.1, 1e6, g.r.NormFloat64() * 1e6, g.f}
	f := pool[g.r.IntN(len(pool))]
	if g.nonFinite && g.r.IntN(8) == 0 {
		f = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.IntN(3)]
	}
	if !g.nonFinite && (math.IsNaN(f) || math.IsInf(f, 0)) {
		f = 0
	}
	return f
}

func (g *wireGen) value() types.Value {
	switch g.r.IntN(6) {
	case 0:
		return types.Null()
	case 1:
		pool := []int64{0, 1, -1, 1 << 53, -(1 << 53), 1<<53 + 1, math.MaxInt64, math.MinInt64, g.r.Int64(), g.i}
		return types.Int(pool[g.r.IntN(len(pool))])
	case 2, 3:
		return types.Float(g.float())
	case 4:
		return types.String(g.str())
	}
	return types.Bool(g.r.IntN(2) == 0)
}

func (g *wireGen) tuple(n int) schema.Tuple {
	t := make(schema.Tuple, n)
	for i := range t {
		t[i] = g.value()
	}
	return t
}

func (g *wireGen) tuples(n int) []schema.Tuple {
	switch g.r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []schema.Tuple{}
	}
	ts := make([]schema.Tuple, 1+g.r.IntN(3))
	for i := range ts {
		ts[i] = g.tuple(n)
	}
	return ts
}

// result draws a well-formed Result (every tuple has the schema's
// arity); withSchema false may leave the schema nil.
func (g *wireGen) result(withSchema bool) *delta.Result {
	cols := make([]schema.Column, g.r.IntN(4))
	if len(cols) == 0 && g.r.IntN(2) == 0 {
		cols = nil // schema.New(name) with no columns
	}
	for i := range cols {
		cols[i] = schema.Col(g.str()+strconv.Itoa(i), types.Kind(g.r.IntN(5)))
	}
	name := g.str()
	r := &delta.Result{Relation: name, Minus: g.tuples(len(cols)), Plus: g.tuples(len(cols))}
	if withSchema || g.r.IntN(8) != 0 {
		r.Schema = schema.New(name, cols...)
	}
	return r
}

func (g *wireGen) set() delta.Set {
	if g.r.IntN(8) == 0 {
		return nil
	}
	s := delta.Set{}
	for i := g.r.IntN(g.maxRelations + 1); i > 0; i-- {
		if g.r.IntN(8) == 0 {
			s[g.str()] = nil
		} else {
			s[g.str()] = g.result(false)
		}
	}
	return s
}

func (g *wireGen) strs() []string {
	if g.r.IntN(4) == 0 {
		return nil
	}
	ss := make([]string, g.r.IntN(3))
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

// side is a report side: nil when the group is absent from that world.
func (g *wireGen) side(n int) schema.Tuple {
	if g.r.IntN(4) == 0 {
		return nil
	}
	return g.tuple(n)
}

func (g *wireGen) report() core.AggregateReport {
	rep := core.AggregateReport{Query: g.str(), GroupColumns: g.strs(), AggColumns: g.strs()}
	if g.r.IntN(4) != 0 {
		rep.Rows = make([]core.AggregateRow, g.r.IntN(3))
		for i := range rep.Rows {
			rep.Rows[i] = core.AggregateRow{Group: g.side(1), Historical: g.side(2), Hypothetical: g.side(2), Delta: g.side(2)}
		}
	}
	return rep
}

func (g *wireGen) reports() []core.AggregateReport {
	if g.r.IntN(3) == 0 {
		return nil
	}
	reps := make([]core.AggregateReport, 1+g.r.IntN(2))
	for i := range reps {
		reps[i] = g.report()
	}
	return reps
}

func (g *wireGen) stats() *core.Stats {
	if g.r.IntN(3) != 0 {
		return nil
	}
	st := &core.Stats{Total: time.Duration(g.i), TotalStatements: g.r.IntN(100), SkippedRelations: g.strs()}
	if g.r.IntN(2) == 0 {
		st.Slices = map[string]progslice.Stats{g.str(): {Tests: g.r.IntN(9), Kept: 1}}
	}
	return st
}

func (g *wireGen) whatIf() WhatIfResponse {
	resp := WhatIfResponse{Delta: g.set(), Aggregates: g.reports(), Stats: g.stats()}
	if g.r.IntN(3) == 0 {
		resp.NaiveStats = &core.NaiveStats{Total: time.Duration(g.i), Delta: time.Millisecond}
	}
	return resp
}

func (g *wireGen) templateEval() TemplateEvalResponse {
	resp := TemplateEvalResponse{Delta: g.set(), Aggregates: g.reports()}
	if g.r.IntN(2) == 0 {
		resp.Results = make([]TemplateBindingResult, g.r.IntN(3))
		for i := range resp.Results {
			resp.Results[i] = TemplateBindingResult{Binding: i + 1, Delta: g.set(), Aggregates: g.reports()}
			if g.r.IntN(3) == 0 {
				resp.Results[i].Error = g.str()
			}
		}
	}
	return resp
}

func (g *wireGen) batch() BatchResponse {
	var resp BatchResponse
	if g.r.IntN(4) != 0 {
		resp.Results = make([]BatchScenarioResult, g.r.IntN(3))
		for i := range resp.Results {
			resp.Results[i] = BatchScenarioResult{Scenario: i + 1, Label: g.str(), Delta: g.set(), Aggregates: g.reports(), Stats: g.stats()}
			if g.r.IntN(3) == 0 {
				resp.Results[i].Error = g.str()
			}
		}
	}
	if g.r.IntN(2) == 0 {
		resp.Stats = &core.BatchStats{Total: time.Duration(g.i), Workers: 2, Scenarios: len(resp.Results)}
	}
	return resp
}

// checkWireCase draws one value of every wire type from seed and
// requires each appender's bytes to equal the reflection oracle's, or
// both to fail (a non-finite float). It also requires decode(encode(x))
// to be x for the Result and for each of its cells.
func checkWireCase(t *testing.T, seed uint64, s string, f float64, i int64, maxRelations int) {
	t.Helper()
	g := &wireGen{r: rand.New(rand.NewPCG(seed, seed>>32^0x9e3779b9)), s: s, f: f, i: i, nonFinite: seed%5 == 0, maxRelations: maxRelations}
	same := func(what string, got []byte, gotErr error, oracle any) {
		t.Helper()
		want, wantErr := json.Marshal(oracle)
		switch {
		case (gotErr != nil) != (wantErr != nil):
			t.Fatalf("seed %d, %s: appender error %v, json.Marshal error %v", seed, what, gotErr, wantErr)
		case gotErr == nil && !bytes.Equal(got, want):
			t.Fatalf("seed %d, %s:\nappender  %s\njson.Marshal %s", seed, what, got, want)
		}
	}

	v := g.value()
	got, err := v.AppendJSON(nil)
	same("Value", got, err, mirrorValue(v))
	tup := g.tuple(g.r.IntN(4))
	got, err = tup.AppendJSON(nil)
	same("Tuple", got, err, mirrorTuple(tup))
	res := g.result(true)
	got, err = res.AppendJSON(nil)
	same("Result", got, err, mirrorDelta(res))
	if err == nil {
		checkResultRoundTrip(t, seed, res, got)
	}
	set := g.set()
	got, err = set.AppendJSON(nil)
	same("Set", got, err, mirrorSet(set))
	rep := g.report()
	got, err = rep.AppendJSON(nil)
	same("AggregateReport", got, err, mirrorAggregate(&rep))

	wi := g.whatIf()
	got, err = wi.AppendJSON(nil)
	same("WhatIfResponse", got, err, wi)
	te := g.templateEval()
	got, err = te.AppendJSON(nil)
	same("TemplateEvalResponse", got, err, te)
	b := g.batch()
	got, err = b.AppendJSON(nil)
	same("BatchResponse", got, err, b)
}

// checkResultRoundTrip decodes a Result's encoding and requires the
// same relation, columns and cells — kind and float bits included —
// unless a string is invalid UTF-8, which the wire replaces by U+FFFD.
func checkResultRoundTrip(t *testing.T, seed uint64, orig *delta.Result, data []byte) {
	t.Helper()
	for _, side := range [][]schema.Tuple{orig.Minus, orig.Plus} {
		for _, tup := range side {
			for _, v := range tup {
				if v.Kind() == types.KindString && !utf8.ValidString(v.AsString()) {
					return
				}
			}
		}
	}
	for _, c := range orig.Schema.Columns {
		if !utf8.ValidString(c.Name) {
			return
		}
	}
	if !utf8.ValidString(orig.Relation) {
		return
	}
	var back delta.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("seed %d: decoding %s: %v", seed, data, err)
	}
	if back.Relation != orig.Relation || len(back.Schema.Columns) != len(orig.Schema.Columns) ||
		len(back.Minus) != len(orig.Minus) || len(back.Plus) != len(orig.Plus) {
		t.Fatalf("seed %d: round trip %s lost its shape", seed, data)
	}
	for ci, c := range orig.Schema.Columns {
		if back.Schema.Columns[ci] != c {
			t.Fatalf("seed %d: column %d %+v came back as %+v", seed, ci, c, back.Schema.Columns[ci])
		}
	}
	for si, side := range [][]schema.Tuple{orig.Minus, orig.Plus} {
		backSide := [][]schema.Tuple{back.Minus, back.Plus}[si]
		for ti, tup := range side {
			for ci, v := range tup {
				if w := backSide[ti][ci]; !identical(v, w) {
					t.Fatalf("seed %d: cell %v came back as %v (%s)", seed, v, w, data)
				}
			}
		}
	}
	if !back.Equal(orig) {
		t.Fatalf("seed %d: round trip %s is not Equal", seed, data)
	}
}

// identical is Value equality without cross-kind numerics, with floats
// compared by bits (−0 is not 0).
func identical(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

// TestWireEncodeMatchesReflection is the randomized oracle: 3 000 draws
// of every wire type, one in five with non-finite floats allowed.
func TestWireEncodeMatchesReflection(t *testing.T) {
	n := uint64(3000)
	if testing.Short() {
		n = 500
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkWireCase(t, seed, wireStrings[seed%uint64(len(wireStrings))], float64(seed)*0.25, int64(seed)<<40, 3)
	}
}

// FuzzWireEncode searches for an input on which an appender and
// json.Marshal's reflection path disagree. Its seeds run under plain
// go test.
func FuzzWireEncode(f *testing.F) {
	f.Add(uint64(1), "", 0.0, int64(0))
	f.Add(uint64(2), "<&>\u2028\u2029", math.Copysign(0, -1), int64(1<<53))
	f.Add(uint64(5), "\xff\x00\x1f", 1e30, int64(-(1 << 53)))
	f.Add(uint64(10), "héllo \"q\" \\", 1.0, int64(math.MinInt64))
	f.Add(uint64(15), "\b\f\n\r\t", math.NaN(), int64(math.MaxInt64))
	f.Add(uint64(77), "日本😀", math.Inf(-1), int64(1<<53+1))
	f.Fuzz(func(t *testing.T, seed uint64, s string, x float64, i int64) {
		checkWireCase(t, seed, s, x, i, 1)
	})
}

// FuzzDecodeWhatIfRequest feeds arbitrary bodies through the what-if
// request decoders: a body may be refused, never panic.
func FuzzDecodeWhatIfRequest(f *testing.F) {
	for _, seed := range []string{
		`{"modifications":[{"op":"replace","pos":1,"statement":"UPDATE orders SET fee = 0 WHERE price >= 60"}]}`,
		`{"modifications":[{"op":"delete","pos":2}],"queries":["SELECT SUM(fee) AS s FROM orders GROUP BY id"]}`,
		`{"modifications":[{"op":"insert","pos":1,"statement":"INSERT INTO orders VALUES (1, 2.5, 'x')"}],"variant":"R+PS"}`,
		`{"modifications":[{"op":"replace","pos":0}]}`,
		`{"modifications":[],"queries":["SELECT fee FROM orders"]}`,
		`{"modifications":[{"op":"replace","pos":1,"statement":"UPDATE"}],"stats":true,"min_version":-1}`,
		`{"modifications":null,"bogus":1}`,
		`{"modifications":[{}]} {}`,
		`[`, ``, `null`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{opts: Options{}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req WhatIfRequest
		r := httptest.NewRequest("POST", "/v1/whatif", bytes.NewReader(body))
		if err := s.decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		_, _ = DecodeModifications(req.Modifications)
		_, _ = DecodeAggregateQueries(req.Queries)
	})
}

// FuzzDecodeTemplateEvalRequest feeds arbitrary bodies through the
// template-eval request decoder and checks every binding a body yields
// against a fixed template — a numeric SET slot, a numeric and a bool
// condition slot — without evaluating: a body or a binding may be
// refused, never panic.
func FuzzDecodeTemplateEvalRequest(f *testing.F) {
	for _, seed := range []string{
		`{"binding":{"bump":1.5,"cut":60,"on":true}}`,
		`{"bindings":[{"bump":1,"cut":60.0,"on":false},{"bump":null,"cut":null,"on":null}],"workers":2}`,
		`{"binding":{"bump":"x","cut":60,"on":true}}`,
		`{"binding":{"bump":1,"cut":60}}`,
		`{"binding":{"bump":1,"cut":60,"on":true,"extra":1}}`,
		`{"binding":{"bump":1e400,"cut":-0.0,"on":1}}`,
		`{"binding":{"bump":9007199254740993,"cut":9007199254740992.0,"on":true},"queries":["SELECT SUM(fee) AS s FROM orders"]}`,
		`{"binding":{},"bindings":[]}`,
		`{"bindings":[null,{}],"timeout_ms":-1,"min_version":-1}`,
		`{"binding":{"bump":[1],"cut":{"a":1}}}`,
		`[`, ``, `null`, `{"binding":null}`,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f, Options{})
	mods, err := DecodeModifications([]Modification{{Op: "replace", Pos: 1,
		Statement: `UPDATE orders SET fee = fee + $bump WHERE price >= $cut AND $on`}})
	if err != nil {
		f.Fatal(err)
	}
	tpl, err := s.sess.CompileTemplate(mods, core.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	if got := fmt.Sprint(tpl.Params()); got != "map[bump:numeric cut:numeric on:bool]" {
		f.Fatalf("template slots %s", got)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TemplateEvalRequest
		r := httptest.NewRequest("POST", "/v1/template/t1/eval", bytes.NewReader(body))
		if err := s.decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		if req.Binding != nil {
			_ = tpl.ValidateBinding(req.Binding)
		}
		for _, b := range req.Bindings {
			_ = tpl.ValidateBinding(b)
		}
		_, _ = DecodeAggregateQueries(req.Queries)
	})
}

// TestEncodeErrorAnswers500: a body that cannot be encoded (a NaN cell)
// answers 500 with an ErrorResponse that parses, and /metrics counts it.
func TestEncodeErrorAnswers500(t *testing.T) {
	srv := newTestServer(t, Options{})
	rel := schema.New("orders", schema.Col("fee", types.KindFloat))
	resp := WhatIfResponse{Delta: delta.Set{"orders": {Relation: "orders", Schema: rel,
		Plus: []schema.Tuple{{types.Float(math.NaN())}}}}}
	w := httptest.NewRecorder()
	srv.writeJSON(w, http.StatusOK, resp)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "non-finite") {
		t.Fatalf("body %q: %v, error %q", w.Body, err, er.Error)
	}
	m := httptest.NewRecorder()
	srv.Handler().ServeHTTP(m, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(m.Body.String(), "\nmahif_http_encode_errors_total 1\n") {
		t.Errorf("/metrics does not count the encode error:\n%s", m.Body)
	}
}

// TestResponsesAreCompact: a served answer is one line of compact JSON.
func TestResponsesAreCompact(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := postJSON(t, h, "/v1/whatif", WhatIfRequest{
		Modifications: []Modification{{Op: "replace", Pos: 1, Statement: `UPDATE orders SET fee = 0 WHERE price >= 60`}},
		Queries:       []string{"SELECT SUM(fee) AS s FROM orders"},
		Stats:         true,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	body := w.Body.Bytes()
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if want := append(compact.Bytes(), '\n'); !bytes.Equal(body, want) {
		t.Errorf("body is not compact JSON plus a newline:\n%s", body)
	}
}

// TestLoadCSVRejectsNonFiniteFloats: NaN, ±Inf and out-of-range cells
// are not floats, so a column holding one is a string column, as
// types.Parse would read each cell.
func TestLoadCSVRejectsNonFiniteFloats(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(file, []byte("a,b,c,d,e\n1.5,1.5,1.5,1.5,1.5\nNaN,inf,-Infinity,1e400,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, err := LoadCSV("t", file)
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Value{types.String("NaN"), types.String("inf"), types.String("-Infinity"), types.String("1e400"), types.Float(2)}
	for i, c := range rel.Schema.Columns {
		if got := rel.Tuples[1][i]; c.Type != want[i].Kind() || !identical(got, want[i]) {
			t.Errorf("column %s: %s cell %v, want %s cell %v", c.Name, c.Type, got, want[i].Kind(), want[i])
		}
	}
}

// benchDelta is an n-row-per-side, 6-column delta on orders with a
// one-group SUM report, the shape of a serve_mixed answer.
func benchDelta(n int) (delta.Set, []core.AggregateReport) {
	cols := []schema.Column{
		schema.Col("id", types.KindInt), schema.Col("price", types.KindFloat), schema.Col("fee", types.KindFloat),
		schema.Col("name", types.KindString), schema.Col("vip", types.KindBool), schema.Col("note", types.KindString),
	}
	r := &delta.Result{Relation: "orders", Schema: schema.New("orders", cols...)}
	for i := 0; i < n; i++ {
		for _, side := range []*[]schema.Tuple{&r.Minus, &r.Plus} {
			*side = append(*side, schema.Tuple{types.Int(int64(i)), types.Float(float64(i) * 1.25), types.Float(float64(i % 7)),
				types.String("customer-" + strconv.Itoa(i)), types.Bool(i%2 == 0), types.Null()})
		}
	}
	return delta.Set{"orders": r}, []core.AggregateReport{{
		Query: "SELECT SUM(fee) AS s FROM orders", GroupColumns: []string{}, AggColumns: []string{"s"},
		Rows: []core.AggregateRow{{Group: schema.Tuple{}, Historical: schema.Tuple{types.Float(1500)},
			Hypothetical: schema.Tuple{types.Float(1490)}, Delta: schema.Tuple{types.Float(-10)}}},
	}}
}

// benchAppend times body.AppendJSON into a reused buffer.
func benchAppend(b *testing.B, body jsonAppender) {
	buf, err := body.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = body.AppendJSON(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfResponseAppendJSON encodes a 500-row-per-side delta
// with a one-group report, the size of a large serve_mixed answer.
func BenchmarkWhatIfResponseAppendJSON(b *testing.B) {
	d, reps := benchDelta(500)
	benchAppend(b, WhatIfResponse{Delta: d, Aggregates: reps})
}

// BenchmarkEnvelopeEncode compares the batch and sweep envelopes'
// AppendJSON with json.Marshal over their field tags, which still
// reaches the nested Sets and reports through their MarshalJSON: eight
// scenarios (bindings) of a 60-row-per-side delta and a report each.
func BenchmarkEnvelopeEncode(b *testing.B) {
	var batch BatchResponse
	var sweep TemplateEvalResponse
	for i := 1; i <= 8; i++ {
		d, reps := benchDelta(60)
		batch.Results = append(batch.Results, BatchScenarioResult{Scenario: i, Label: "s" + strconv.Itoa(i), Delta: d, Aggregates: reps})
		sweep.Results = append(sweep.Results, TemplateBindingResult{Binding: i, Delta: d, Aggregates: reps})
	}
	for _, body := range []struct {
		name string
		body jsonAppender
	}{{"batch", batch}, {"sweep", sweep}} {
		b.Run(body.name+"/append", func(b *testing.B) { benchAppend(b, body.body) })
		b.Run(body.name+"/marshal", func(b *testing.B) {
			buf, err := json.Marshal(body.body)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err = json.Marshal(body.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
