package persist

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/sql"
)

// renderAll renders statements the way the WAL encodes them.
func renderAll(t *testing.T, stmts []history.Statement) []string {
	t.Helper()
	out := make([]string, len(stmts))
	for i, st := range stmts {
		text, err := sql.RenderStatement(st)
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		out[i] = text
	}
	return out
}

// TestTailFollowConcurrent is the tail-follow property test: a
// follower streaming the WAL concurrently with a writer — across
// segment rotations, failed-apply rollbacks that truncate and rewrite
// the very bytes an unbounded reader would prefetch, and torn writes
// injected past the commit boundary (the partial-write crash
// signature) — must deliver exactly the committed statements, in
// order, and never observe a torn or rolled-back record as corruption.
func TestTailFollowConcurrent(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xFEED + int64(trial)))
			// Tiny segments force many rotations; NoSync keeps the test
			// fast (durability is not what is being pinned here).
			s, dir := mustCreate(t, Options{SegmentBytes: 512, CheckpointEvery: 17, NoSync: true})
			defer s.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			type rec struct {
				seq     uint64
				payload string
			}
			recs := make(chan rec, 1024)
			followErr := make(chan error, 1)
			go func() {
				tr, err := s.TailFrom(1)
				if err != nil {
					followErr <- err
					return
				}
				defer tr.Close()
				for {
					seq, payload, err := tr.Next(ctx)
					if err != nil {
						followErr <- err
						return
					}
					recs <- rec{seq, string(payload)}
				}
			}()

			var committed []history.Statement
			const appends = 120
			for i := 0; i < appends; i++ {
				switch rng.Intn(6) {
				case 0:
					// A statement that parses but fails to apply: the
					// record is written, then rolled back off the log.
					bad := sql.MustParseStatement("UPDATE nosuchrel SET x = 1 WHERE x = 2")
					if _, err := s.Append(ctx, []history.Statement{bad}); err == nil {
						t.Fatalf("append of failing statement unexpectedly succeeded")
					}
				case 1:
					// Torn write past the commit boundary: garbage bytes a
					// crashed writer could leave behind. The store's next
					// append overwrites them at its own cursor; the
					// follower must never read them.
					f, err := os.OpenFile(segmentPath(dir, s.seg.firstSeq), os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatalf("open active segment: %v", err)
					}
					junk := make([]byte, 1+rng.Intn(64))
					rng.Read(junk)
					if _, err := f.Write(junk); err != nil {
						t.Fatalf("inject garbage: %v", err)
					}
					f.Close()
				default:
					n := 1 + rng.Intn(3)
					batch := make([]history.Statement, n)
					for j := range batch {
						batch[j] = randomStatement(rng)
					}
					if _, err := s.Append(ctx, batch); err != nil {
						t.Fatalf("append: %v", err)
					}
					committed = append(committed, batch...)
				}
			}

			want := renderAll(t, committed)
			for i, text := range want {
				select {
				case r := <-recs:
					if r.seq != uint64(i+1) {
						t.Fatalf("record %d: seq %d, want %d", i, r.seq, i+1)
					}
					if r.payload != text {
						t.Fatalf("record %d: payload %q, want %q", i, r.payload, text)
					}
				case err := <-followErr:
					t.Fatalf("follower died after %d/%d records: %v", i, len(want), err)
				case <-ctx.Done():
					t.Fatalf("timed out after %d/%d records", i, len(want))
				}
			}
			// The follower must now be blocked, not have over-read.
			select {
			case r := <-recs:
				t.Fatalf("follower read past the committed tip: seq %d", r.seq)
			case err := <-followErr:
				t.Fatalf("follower died after the tip: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

// TestTailFromMidHistory pins the positioned open: a reader starting
// mid-history skips exactly the records before its start seq, and one
// starting past the next seq is rejected.
func TestTailFromMidHistory(t *testing.T) {
	s, _ := mustCreate(t, Options{SegmentBytes: 256, NoSync: true})
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	var stmts []history.Statement
	for i := 0; i < 20; i++ {
		st := randomStatement(rng)
		if _, err := s.Append(ctx, []history.Statement{st}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		stmts = append(stmts, st)
	}
	want := renderAll(t, stmts)

	tr, err := s.TailFrom(10)
	if err != nil {
		t.Fatalf("TailFrom(10): %v", err)
	}
	defer tr.Close()
	for seq := uint64(10); seq <= 20; seq++ {
		got, payload, err := tr.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if got != seq || string(payload) != want[seq-1] {
			t.Fatalf("seq %d: got (%d, %q), want (%d, %q)", seq, got, payload, seq, want[seq-1])
		}
	}

	if _, err := s.TailFrom(22); err == nil {
		t.Fatalf("TailFrom beyond next seq succeeded")
	}

	// From exactly one past the tip: blocks until the next append.
	tr2, err := s.TailFrom(21)
	if err != nil {
		t.Fatalf("TailFrom(21): %v", err)
	}
	defer tr2.Close()
	next := sql.MustParseStatement("UPDATE orders SET price = price + 1.0 WHERE id >= 0")
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Append(ctx, []history.Statement{next})
	}()
	seq, payload, err := tr2.Next(ctx)
	if err != nil {
		t.Fatalf("Next at tip: %v", err)
	}
	text, _ := sql.RenderStatement(next)
	if seq != 21 || string(payload) != text {
		t.Fatalf("tip read: got (%d, %q), want (21, %q)", seq, payload, text)
	}
}

// TestTailNextHonorsContext pins that a blocked follower wakes on
// cancellation and on store close.
func TestTailNextHonorsContext(t *testing.T) {
	s, _ := mustCreate(t, Options{NoSync: true})
	defer s.Close()
	tr, err := s.TailFrom(1)
	if err != nil {
		t.Fatalf("TailFrom: %v", err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := tr.Next(ctx); err == nil {
		t.Fatalf("Next returned without an append")
	} else if ctx.Err() == nil {
		t.Fatalf("Next failed before the deadline: %v", err)
	}
}

// TestListingLeavesStagedCheckpoint: a temp file in a live store is a
// checkpoint being staged, and a follower listing the store through a
// tail must not delete it; only recovery sweeps temp files, as crash
// leftovers.
func TestListingLeavesStagedCheckpoint(t *testing.T) {
	s, dir := mustCreate(t, Options{NoSync: true})
	ctx := context.Background()
	if _, err := s.Append(ctx, []history.Statement{randomStatement(rand.New(rand.NewSource(1)))}); err != nil {
		t.Fatal(err)
	}
	staged := checkpointPath(dir, 1) + tmpSuffix
	if err := os.WriteFile(staged, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := s.TailFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Next(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := os.Stat(staged); err != nil {
		t.Fatalf("listing the store through a tail removed a staged checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(staged); !os.IsNotExist(err) {
		t.Fatalf("recovery left a crash's temp file behind (stat: %v)", err)
	}
}
