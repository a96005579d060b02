package persist

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// testBase builds the two-relation database the test histories run
// over: orders is populated, archive starts empty.
func testBase() *storage.Database {
	db := storage.NewDatabase()
	orders := storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
		schema.Col("tag", types.KindString),
		schema.Col("ok", types.KindBool),
	))
	for i := 0; i < 20; i++ {
		orders.Add(schema.Tuple{
			types.Int(int64(i)),
			types.Float(float64(10 + i)),
			types.String(fmt.Sprintf("t%d", i%3)),
			types.Bool(i%2 == 0),
		})
	}
	db.AddRelation(orders)
	archive := storage.NewRelation(schema.New("archive",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
		schema.Col("tag", types.KindString),
		schema.Col("ok", types.KindBool),
	))
	db.AddRelation(archive)
	return db
}

// randomStatement draws a parseable statement over the test schema.
func randomStatement(rng *rand.Rand) history.Statement {
	switch rng.Intn(10) {
	case 0:
		return sql.MustParseStatement(fmt.Sprintf(
			"DELETE FROM orders WHERE id = %d AND price > 1e6", rng.Intn(50)))
	case 1:
		return sql.MustParseStatement(fmt.Sprintf(
			"INSERT INTO orders VALUES (%d, %d.5, 'it''s', true), (%d, 3.0, 'x', false)",
			100+rng.Intn(100), rng.Intn(30), 200+rng.Intn(100)))
	case 2:
		return sql.MustParseStatement(fmt.Sprintf(
			"INSERT INTO archive SELECT id, price, tag, ok FROM orders WHERE price >= %d AND id < %d",
			10+rng.Intn(20), rng.Intn(25)))
	case 3:
		return sql.MustParseStatement(fmt.Sprintf(
			"UPDATE orders SET tag = CASE WHEN id >= %d THEN 'hi' ELSE tag END WHERE ok = true", rng.Intn(20)))
	default:
		return sql.MustParseStatement(fmt.Sprintf(
			"UPDATE orders SET price = price + %d.0 WHERE id >= %d", rng.Intn(5), rng.Intn(20)))
	}
}

// mustCreate builds a fresh store under t's temp dir.
func mustCreate(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Create(dir, testBase(), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s, dir
}

// dbState renders a stable fingerprint of the store's current state.
func dbState(vdb *storage.VersionedDatabase) string {
	_, db := vdb.TipSnapshot()
	return db.String()
}

// historyStrings renders the log for prefix comparisons.
func historyStrings(vdb *storage.VersionedDatabase) []string {
	log := vdb.Log()
	out := make([]string, len(log))
	for i, m := range log {
		out[i] = m.String()
	}
	return out
}

func TestCreateAppendReopen(t *testing.T) {
	s, dir := mustCreate(t, Options{})
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	var committed []string
	for i := 0; i < 40; i++ {
		st := randomStatement(rng)
		if _, err := s.Append(ctx, []history.Statement{st}); err != nil {
			t.Fatalf("append %d (%s): %v", i, st, err)
		}
		committed = append(committed, st.String())
	}
	wantState := dbState(s.Database())
	wantVersion := s.Version()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := re.Version(); got != wantVersion {
		t.Fatalf("recovered version %d, want %d", got, wantVersion)
	}
	if got := dbState(re.Database()); got != wantState {
		t.Fatalf("recovered state differs:\n%s\nwant:\n%s", got, wantState)
	}
	got := historyStrings(re.Database())
	if len(got) != len(committed) {
		t.Fatalf("recovered %d statements, want %d", len(got), len(committed))
	}
	for i := range got {
		if got[i] != committed[i] {
			t.Fatalf("statement %d = %q, want %q", i, got[i], committed[i])
		}
	}
	info := re.RecoveryInfo()
	if info.Statements != wantVersion || info.TruncatedRecords != 0 {
		t.Fatalf("unexpected recovery info: %+v", info)
	}
	// The recovered store keeps working.
	if _, err := re.Append(ctx, []history.Statement{randomStatement(rng)}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestStatementRoundTrip(t *testing.T) {
	// Programmatic statements exercising every value kind, including
	// the renderings that used to be lossy: integral floats (2 vs 2.0),
	// exponent floats, quoted strings, NULL.
	stmts := []history.Statement{
		&history.InsertValues{Rel: "orders", Rows: []schema.Tuple{
			{types.Int(-5), types.Float(2), types.String("a'b"), types.Bool(false)},
			{types.Int(7), types.Float(1e30), types.Null(), types.Bool(true)},
		}},
		sql.MustParseStatement("UPDATE orders SET price = 2.0, ok = false WHERE tag = 'it''s' OR price <= -1.5"),
		sql.MustParseStatement("DELETE FROM orders WHERE price IS NULL OR NOT ok = true"),
		sql.MustParseStatement("INSERT INTO archive SELECT id, price + 1.0 AS price, tag, ok FROM orders WHERE id >= 3"),
		sql.MustParseStatement("INSERT INTO archive SELECT * FROM archive WHERE id < 2 UNION ALL SELECT id, price, tag, ok FROM orders WHERE id = 1"),
		sql.MustParseStatement("INSERT INTO archive (SELECT * FROM orders WHERE ok = true)"),
	}
	for i, st := range stmts {
		payload, err := EncodeStatement(st)
		if err != nil {
			t.Fatalf("statement %d (%s): %v", i, st, err)
		}
		back, err := sql.ParseStatement(string(payload))
		if err != nil {
			t.Fatalf("statement %d: reparse %q: %v", i, payload, err)
		}
		// Applying the original and the round-tripped statement to the
		// same state must agree exactly.
		a, b := testBase(), testBase()
		errA, errB := st.Apply(a), back.Apply(b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("statement %d: apply error mismatch: %v vs %v", i, errA, errB)
		}
		if a.String() != b.String() {
			t.Fatalf("statement %d (%s): state diverged after round trip through %q", i, st, payload)
		}
	}
}

func TestEncodeRejectsNonSQLStatements(t *testing.T) {
	sing := &algebra.Singleton{
		Sch:    schema.New("x", schema.Col("a", types.KindInt)),
		Tuples: []schema.Tuple{{types.Int(1)}},
	}
	st := &history.InsertQuery{Rel: "orders", Query: sing}
	if _, err := EncodeStatement(st); err == nil {
		t.Fatalf("EncodeStatement accepted a query with no SQL form")
	}
	s, _ := mustCreate(t, Options{})
	defer s.Close()
	v0 := s.Version()
	if _, err := s.Append(context.Background(), []history.Statement{st}); err == nil {
		t.Fatalf("Append accepted an unencodable statement")
	}
	if s.Version() != v0 {
		t.Fatalf("version advanced past a rejected statement")
	}
}

func TestSegmentRotation(t *testing.T) {
	s, dir := mustCreate(t, Options{SegmentBytes: 256})
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := s.Append(ctx, []history.Statement{randomStatement(rng)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := s.Stats(); st.Segments < 3 || st.Rotations < 2 {
		t.Fatalf("expected rotations with 256-byte segments, got %+v", st)
	}
	want := dbState(s.Database())
	s.Close()
	re, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := dbState(re.Database()); got != want {
		t.Fatalf("multi-segment recovery diverged")
	}
	if re.RecoveryInfo().Segments < 3 {
		t.Fatalf("recovery saw %d segments", re.RecoveryInfo().Segments)
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	s, dir := mustCreate(t, Options{})
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		if _, err := s.Append(ctx, []history.Statement{randomStatement(rng)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if info.Version != 25 || info.Bytes == 0 {
		t.Fatalf("checkpoint info %+v", info)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(ctx, []history.Statement{randomStatement(rng)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	want := dbState(s.Database())
	s.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri.CheckpointVersion != 25 || ri.ReplayedStatements != 10 || ri.Statements != 35 {
		t.Fatalf("recovery did not start from the checkpoint: %+v", ri)
	}
	if got := dbState(re.Database()); got != want {
		t.Fatalf("checkpointed recovery diverged")
	}
	// Time travel below the checkpoint still works (the base is kept).
	if _, err := re.Database().Version(3); err != nil {
		t.Fatalf("time travel below checkpoint: %v", err)
	}
}

func TestAutoCheckpointAndPruning(t *testing.T) {
	s, dir := mustCreate(t, Options{CheckpointEvery: 10, RetainCheckpoints: 2})
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for i := 0; i < 55; i++ {
		if _, err := s.Append(ctx, []history.Statement{randomStatement(rng)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	st := s.Stats()
	if st.CheckpointsWritten < 5 || st.LastCheckpointVersion < 50 {
		t.Fatalf("auto checkpoints missing: %+v", st)
	}
	s.Close()
	_, ckpts, err := listStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpts[0] != 0 {
		t.Fatalf("base checkpoint pruned: %v", ckpts)
	}
	if n := len(ckpts) - 1; n > 2 {
		t.Fatalf("retention kept %d non-base checkpoints: %v", n, ckpts)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after pruning: %v", err)
	}
	re.Close()
}

func TestAppendApplyFailureRollsBack(t *testing.T) {
	s, dir := mustCreate(t, Options{})
	ctx := context.Background()
	good := sql.MustParseStatement("UPDATE orders SET price = 1.0 WHERE id = 1")
	if _, err := s.Append(ctx, []history.Statement{good}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Parseable but unappliable: the relation does not exist.
	bad := sql.MustParseStatement("UPDATE nosuch SET a = 1 WHERE a = 2")
	v, err := s.Append(ctx, []history.Statement{bad})
	if err == nil {
		t.Fatalf("append of unappliable statement succeeded")
	}
	if v != 1 || s.Version() != 1 {
		t.Fatalf("version %d after failed append, want 1", v)
	}
	// Batch: first succeeds and stays committed, second aborts.
	v, err = s.Append(ctx, []history.Statement{
		sql.MustParseStatement("UPDATE orders SET price = 2.0 WHERE id = 2"),
		bad,
	})
	if err == nil || v != 2 {
		t.Fatalf("partial batch: version %d err %v", v, err)
	}
	// An INSERT rejected at its second row leaves no row in the live tip.
	before := dbState(s.Database())
	v, err = s.Append(ctx, []history.Statement{sql.MustParseStatement(
		"INSERT INTO orders VALUES (90, 1.5, 'x', true), (91)")})
	if err == nil || v != 2 {
		t.Fatalf("rejected INSERT: version %d err %v", v, err)
	}
	if got := dbState(s.Database()); got != before {
		t.Fatalf("rejected INSERT changed the live tip:\n%s\nwant:\n%s", got, before)
	}
	want := dbState(s.Database())
	s.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if re.Version() != 2 {
		t.Fatalf("recovered version %d, want 2 (failed statements rolled back)", re.Version())
	}
	if got := dbState(re.Database()); got != want {
		t.Fatalf("state diverged after rollback recovery")
	}
}

func TestDetectAndCreateGuards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	if Detect(dir) {
		t.Fatalf("Detect on missing dir")
	}
	s, err := Create(dir, testBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !Detect(dir) {
		t.Fatalf("Detect missed a store")
	}
	if _, err := Create(dir, testBase(), Options{}); err == nil {
		t.Fatalf("Create over an existing store succeeded")
	}
}

func TestEmptyTrailingSegmentRecovers(t *testing.T) {
	// Tiny segments force a rotation after nearly every append, so the
	// store regularly sits with a freshly created, still-empty active
	// segment — the state a crash right after rotation leaves behind.
	s, dir := mustCreate(t, Options{SegmentBytes: 1})
	ctx := context.Background()
	if _, err := s.Append(ctx, []history.Statement{sql.MustParseStatement("UPDATE orders SET price = 1.0 WHERE id = 1")}); err != nil {
		t.Fatal(err)
	}
	want := dbState(s.Database())
	s.Close()
	segs, _, err := listStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("expected an empty rotated segment, got %v", segs)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with empty trailing segment: %v", err)
	}
	defer re.Close()
	if re.Version() != 1 || dbState(re.Database()) != want {
		t.Fatalf("empty-segment recovery diverged")
	}
	if _, err := re.Append(ctx, []history.Statement{sql.MustParseStatement("UPDATE orders SET price = 3.0 WHERE id = 1")}); err != nil {
		t.Fatalf("append into recovered empty segment: %v", err)
	}
}

func TestOpenMissingBaseCheckpoint(t *testing.T) {
	s, dir := mustCreate(t, Options{})
	s.Close()
	if err := os.Remove(checkpointPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "base checkpoint") {
		t.Fatalf("Open without base checkpoint: %v", err)
	}
}

func TestRemoveStoreRollsBackInit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := Create(dir, testBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(context.Background(), []history.Statement{
		sql.MustParseStatement("UPDATE orders SET price = 1.0 WHERE id = 1"),
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := RemoveStore(dir); err != nil {
		t.Fatal(err)
	}
	if Detect(dir) {
		t.Fatalf("store files survived RemoveStore")
	}
	// The directory is re-initializable.
	s2, err := Create(dir, testBase(), Options{})
	if err != nil {
		t.Fatalf("re-init after RemoveStore: %v", err)
	}
	s2.Close()
}

func TestLoadCheckpointCorruptLengthField(t *testing.T) {
	s, dir := mustCreate(t, Options{})
	s.Close()
	path := checkpointPath(dir, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the 8-byte payload-length field to a huge value: the sum
	// header+plen+4 wraps in uint64, which must degrade to ErrCorrupt,
	// not a negative slice bound.
	for i := 20; i < 28; i++ {
		raw[i] = 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCheckpoint(path); err == nil {
		t.Fatalf("corrupt length field accepted")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}
