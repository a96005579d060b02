package persist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
)

// Options tunes a Store.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size (default 4 MiB).
	SegmentBytes int64
	// CheckpointEvery writes a snapshot checkpoint automatically every
	// that many appended statements (0 = manual checkpoints only).
	CheckpointEvery int
	// RetainCheckpoints keeps that many newest checkpoint files besides
	// the base (default 3). The base checkpoint (version 0) is never
	// deleted; in-memory checkpoints already loaded stay available for
	// time travel regardless.
	RetainCheckpoints int
	// NoSync skips fsync on appends and checkpoints. Throughput mode
	// for benchmarks and bulk ingest: a crash can lose acknowledged
	// statements (recovery still yields a valid prefix).
	NoSync bool
	// Logf receives recovery warnings (torn-tail truncations, skipped
	// corrupt checkpoints). Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.RetainCheckpoints <= 0 {
		o.RetainCheckpoints = 3
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Stats counts a store's durability traffic since open (recovery-time
// figures live in RecoveryInfo).
type Stats struct {
	// Version is the durably committed history length.
	Version int
	// Appends and StatementsAppended count Append calls and the
	// statements they committed; AppendErrors counts statements
	// rejected (unencodable or failing to apply).
	Appends            int64
	StatementsAppended int64
	AppendErrors       int64
	// WALBytesWritten is the record bytes written this process.
	WALBytesWritten int64
	// Segments is the segment file count; Rotations counts segment
	// rolls this process.
	Segments  int
	Rotations int64
	// CheckpointsWritten counts checkpoints taken this process;
	// LastCheckpoint* describe the newest one on disk.
	CheckpointsWritten     int64
	LastCheckpointVersion  int
	LastCheckpointBytes    int64
	LastCheckpointDuration time.Duration
	// GroupCommits counts Append batches that led a WAL fsync;
	// SyncsCoalesced counts batches whose durability rode on another
	// batch's fsync instead of issuing their own. Under concurrent
	// appenders their ratio is the group-commit amplification.
	GroupCommits   int64
	SyncsCoalesced int64
}

// RecoveryInfo describes what Open found and did.
type RecoveryInfo struct {
	// Duration is the wall-clock cost of recovery (checkpoint load +
	// tail replay).
	Duration time.Duration
	// Statements is the recovered history length; ReplayedStatements
	// is how many had to be re-applied on top of CheckpointVersion.
	Statements         int
	CheckpointVersion  int
	ReplayedStatements int
	// Segments and CheckpointsLoaded count the files consumed.
	Segments          int
	CheckpointsLoaded int
	// TruncatedRecords/TruncatedBytes report the torn tail discarded,
	// if any.
	TruncatedRecords int
	TruncatedBytes   int64
}

// Store is a durable history store: a versioned in-memory database
// whose every statement is committed to a segmented WAL before it
// becomes visible, with snapshot checkpoints bounding recovery time.
// One Store owns its directory exclusively. Append is safe for
// concurrent use with readers of Database(); appends themselves are
// serialized.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	vdb      *storage.VersionedDatabase
	seg      *activeSegment
	version  int
	closed   bool
	stats    Stats
	recovery RecoveryInfo

	// Commit position: commitSeg is the first-seq of the segment holding
	// the newest committed record and commitOff the byte boundary right
	// after it. Bytes below the boundary are immutable (a failed apply
	// only ever truncates at or past it), which is what lets a TailReader
	// stream a segment concurrently with appends without ever observing
	// a torn or rolled-back record. Guarded by mu.
	commitSeg uint64
	commitOff int64
	// verCh is closed and replaced whenever version advances, so WAL
	// followers can block on the next committed record without polling.
	// Guarded by mu; closed one final time by Close to release waiters.
	verCh chan struct{}

	// Group-commit state: gcSynced is the highest version known durable
	// (monotone); gcInFlight marks a leader mid-fsync. Appenders wait on
	// gcCond (created lazily) until their version is covered, so any
	// number of concurrent Append batches share one fsync.
	gcMu       sync.Mutex
	gcCond     *sync.Cond
	gcSynced   int
	gcInFlight bool
}

// Detect reports whether dir contains a store (its base checkpoint).
func Detect(dir string) bool {
	_, err := os.Stat(checkpointPath(dir, 0))
	return err == nil
}

// RemoveStore deletes every store file (segments, checkpoints, temp
// files) from dir, leaving the directory itself and any foreign files
// alone. Callers use it to roll back a failed first ingest so the
// directory can be initialized again; it must not be called on a store
// that is open.
func RemoveStore(dir string) error {
	if err := sweepTemp(dir); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	segs, ckpts, err := listStore(dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if err := os.Remove(segmentPath(dir, seq)); err != nil {
			return err
		}
	}
	for _, v := range ckpts {
		if err := os.Remove(checkpointPath(dir, v)); err != nil {
			return err
		}
	}
	return nil
}

// Create initializes dir (created if missing, must not already hold a
// store) with base as the state before any history statement, writing
// the base checkpoint and an empty first segment.
func Create(dir string, base *storage.Database, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := sweepTemp(dir); err != nil {
		return nil, err
	}
	segs, ckpts, err := listStore(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(ckpts) > 0 {
		return nil, fmt.Errorf("persist: %s already contains a store (use Open)", dir)
	}
	if _, err := writeCheckpoint(dir, 0, base, !opts.NoSync); err != nil {
		return nil, fmt.Errorf("persist: writing base checkpoint: %w", err)
	}
	seg, err := createSegment(dir, 1, !opts.NoSync)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, vdb: storage.NewVersioned(base), seg: seg}
	s.stats.Segments = 1
	s.commitSeg, s.commitOff = seg.firstSeq, seg.size
	s.verCh = make(chan struct{})
	return s, nil
}

// Open recovers the store in dir: it loads the newest valid checkpoint,
// replays the WAL tail on top of it, truncates a torn final record,
// and registers every loaded checkpoint with the versioned database so
// time travel starts warm.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	start := time.Now()
	if err := sweepTemp(dir); err != nil {
		return nil, err
	}
	segs, ckptVers, err := listStore(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}

	// Checkpoints: the base is mandatory; later ones are best-effort
	// (a corrupt file falls back to the previous checkpoint, at worst
	// the base).
	var base *storage.Database
	checkpoints := map[int]*storage.Database{}
	for _, v := range ckptVers {
		ver, db, err := loadCheckpoint(checkpointPath(dir, v))
		if err != nil {
			if v == 0 {
				return nil, fmt.Errorf("persist: base checkpoint: %w", err)
			}
			opts.logf("persist: skipping checkpoint %d: %v", v, err)
			continue
		}
		if ver != v {
			return nil, fmt.Errorf("%w: checkpoint file %d claims version %d", ErrCorrupt, v, ver)
		}
		if v == 0 {
			base = db
		} else {
			checkpoints[v] = db
		}
		s.recovery.CheckpointsLoaded++
	}
	if base == nil {
		return nil, fmt.Errorf("%w: %s has no base checkpoint (version 0)", ErrCorrupt, dir)
	}

	// WAL scan: statements 1..T with strict seq continuity; a torn or
	// unreadable record is a truncatable tail only at the very end of
	// the last segment.
	log, lastSeg, lastSize, lastRecStart, err := s.scanSegments(segs)
	if err != nil {
		return nil, err
	}
	s.recovery.Segments = len(segs)
	s.recovery.Statements = len(log)
	s.version = len(log)

	// Choose the newest checkpoint not past the log tip and build the
	// current state from it. A checkpoint beyond the tip (possible when
	// the tail was torn below it, e.g. after NoSync ingest) describes
	// statements the log cannot prove, so it is unusable — drop it and
	// recover from an earlier one.
	best := 0
	for v := range checkpoints {
		if v > len(log) {
			opts.logf("persist: dropping checkpoint %d: ahead of the %d-statement log", v, len(log))
			delete(checkpoints, v)
			_ = os.Remove(checkpointPath(dir, v))
			s.recovery.CheckpointsLoaded--
			continue
		}
		if v > best {
			best = v
		}
	}
	s.recovery.CheckpointVersion = best
	cur := base
	if best > 0 {
		cur = checkpoints[best]
	}
	current := cur.Clone()
	// A recovery-private index set accelerates the replay loop the same
	// way the tip's maintained indexes accelerate live appends. current
	// is a private clone until RestoreVersioned takes ownership, so the
	// indexed path's in-place rewrites cannot be observed.
	rix := storage.NewIndexSet()
	for i := best; i < len(log); i++ {
		if err := log[i].ApplyIndexed(current, rix); err != nil {
			if i != len(log)-1 {
				return nil, fmt.Errorf("%w: statement %d (%s) fails to replay: %v", ErrCorrupt, i+1, log[i], err)
			}
			// A valid append never leaves an unappliable record behind —
			// this can only be a crash artifact from the append path's
			// abort window (the record was written, the apply failed, the
			// truncation never ran). Drop it like a torn tail.
			opts.logf("persist: dropping final statement %d (%s): fails to apply: %v", i+1, log[i], err)
			s.recovery.TruncatedRecords++
			s.recovery.TruncatedBytes += lastSize - lastRecStart
			if err := os.Truncate(segmentPath(dir, lastSeg), lastRecStart); err != nil {
				return nil, err
			}
			log = log[:len(log)-1]
			lastSize = lastRecStart
			break
		}
	}
	s.recovery.Statements = len(log)
	s.recovery.ReplayedStatements = len(log) - best
	s.version = len(log)

	mutators := make([]storage.Mutator, len(log))
	for i, st := range log {
		mutators[i] = st
	}
	s.vdb = storage.RestoreVersioned(base, mutators, checkpoints, current)

	// Reopen (or create) the active segment at the validated offset.
	if len(segs) == 0 {
		seg, err := createSegment(dir, uint64(s.version)+1, !opts.NoSync)
		if err != nil {
			return nil, err
		}
		s.seg = seg
		segs = []uint64{seg.firstSeq}
	} else {
		seg, err := openSegmentForAppend(segmentPath(dir, lastSeg), lastSeg, lastSize)
		if err != nil {
			return nil, err
		}
		s.seg = seg
	}
	s.stats.Segments = len(segs)
	s.commitSeg, s.commitOff = s.seg.firstSeq, s.seg.size
	s.verCh = make(chan struct{})
	// Report only checkpoints that survived validation (corrupt or
	// ahead-of-log ones were skipped or deleted above), so the auto-
	// checkpoint cadence and /metrics reflect what is actually on disk.
	for v := range checkpoints {
		if v > s.stats.LastCheckpointVersion {
			s.stats.LastCheckpointVersion = v
		}
	}
	s.recovery.Duration = time.Since(start)
	return s, nil
}

// scanSegments reads every WAL record in order, returning the decoded
// history, the first-seq of the last segment, the validated byte size
// of the last segment (the truncation point for a torn tail), and the
// offset at which its final accepted record begins (the truncation
// point if that record later fails to apply).
func (s *Store) scanSegments(segs []uint64) (log []history.Statement, lastSeg uint64, lastSize, lastRecStart int64, err error) {
	nextSeq := uint64(1)
	for si, firstSeq := range segs {
		last := si == len(segs)-1
		if firstSeq != nextSeq {
			return nil, 0, 0, 0, fmt.Errorf("%w: segment %d starts at seq %d, want %d",
				ErrCorrupt, firstSeq, firstSeq, nextSeq)
		}
		path := segmentPath(s.dir, firstSeq)
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		hdrSeq, err := readSegmentHeader(f)
		if err != nil {
			f.Close()
			return nil, 0, 0, 0, fmt.Errorf("segment %s: %w", path, err)
		}
		if hdrSeq != firstSeq {
			f.Close()
			return nil, 0, 0, 0, fmt.Errorf("%w: segment %s header seq %d != name seq %d",
				ErrCorrupt, path, hdrSeq, firstSeq)
		}
		size := int64(segmentHeaderSize)
		recStart := size
		for {
			seq, payload, rerr := readRecord(f)
			if errors.Is(rerr, io.EOF) {
				break
			}
			if rerr != nil {
				if !last {
					f.Close()
					return nil, 0, 0, 0, fmt.Errorf("%w: unreadable record mid-log in segment %s", ErrCorrupt, path)
				}
				// The damaged record starts at `size`. It is a truncatable
				// torn tail only if nothing valid follows it — a complete
				// record past the damage means committed history would be
				// dropped, which is corruption, not a crash signature.
				raw, err := os.ReadFile(path)
				if err != nil {
					f.Close()
					return nil, 0, 0, 0, err
				}
				if !tailIsTruncatable(raw, size+1, nextSeq) {
					f.Close()
					return nil, 0, 0, 0, fmt.Errorf("%w: damaged record %d in %s is followed by valid records", ErrCorrupt, nextSeq, path)
				}
				end := int64(len(raw))
				s.recovery.TruncatedRecords++
				s.recovery.TruncatedBytes += end - size
				s.opts.logf("persist: truncating torn tail of %s (%d bytes)", path, end-size)
				if err := os.Truncate(path, size); err != nil {
					f.Close()
					return nil, 0, 0, 0, err
				}
				break
			}
			if seq != nextSeq {
				f.Close()
				return nil, 0, 0, 0, fmt.Errorf("%w: segment %s: record seq %d, want %d",
					ErrCorrupt, path, seq, nextSeq)
			}
			st, perr := sql.ParseStatement(string(payload))
			if perr != nil {
				if !last {
					f.Close()
					return nil, 0, 0, 0, fmt.Errorf("%w: unparseable statement %d mid-log: %v", ErrCorrupt, seq, perr)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					f.Close()
					return nil, 0, 0, 0, err
				}
				if !tailIsTruncatable(raw, size+recordSize(len(payload)), nextSeq+1) {
					f.Close()
					return nil, 0, 0, 0, fmt.Errorf("%w: unparseable statement %d in %s is followed by valid records", ErrCorrupt, seq, path)
				}
				s.recovery.TruncatedRecords++
				s.recovery.TruncatedBytes += recordSize(len(payload))
				s.opts.logf("persist: dropping unparseable final statement %d: %v", seq, perr)
				if err := os.Truncate(path, size); err != nil {
					f.Close()
					return nil, 0, 0, 0, err
				}
				break
			}
			log = append(log, st)
			recStart = size
			size += recordSize(len(payload))
			nextSeq++
		}
		f.Close()
		lastSeg, lastSize, lastRecStart = firstSeq, size, recStart
	}
	return log, lastSeg, lastSize, lastRecStart, nil
}

// Database returns the recovered versioned database. Reads through it
// are safe while appends are in flight.
func (s *Store) Database() *storage.VersionedDatabase { return s.vdb }

// Version returns the durably committed history length.
func (s *Store) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Version = s.version
	return st
}

// RecoveryInfo reports what Open found (zero value for a Create'd
// store).
func (s *Store) RecoveryInfo() RecoveryInfo { return s.recovery }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// EncodeStatement renders st as its WAL payload, verifying the SQL
// round-trips through the parser so recovery can always read it back.
// Statements built programmatically from constructs without a SQL
// rendering are rejected here, before any byte hits the log.
func EncodeStatement(st history.Statement) ([]byte, error) {
	text, err := sql.RenderStatement(st)
	if err != nil {
		return nil, fmt.Errorf("persist: statement is not WAL-encodable: %w", err)
	}
	if _, err := sql.ParseStatement(text); err != nil {
		return nil, fmt.Errorf("persist: statement %q is not WAL-encodable: %w", text, err)
	}
	return []byte(text), nil
}

// Append commits stmts to the history: each statement is written to
// the WAL, applied to the in-memory database, and becomes visible to
// readers immediately; the batch is fsynced once before Append
// returns (group commit), which is the durability point. A statement
// that fails to encode or apply aborts the batch: earlier statements
// stay committed, the failed statement's record is rolled back off the
// log, and the error is returned with the surviving version.
func (s *Store) Append(ctx context.Context, stmts []history.Statement) (int, error) {
	s.mu.Lock()
	if s.closed {
		defer s.mu.Unlock()
		return s.version, fmt.Errorf("persist: store is closed")
	}
	if len(stmts) == 0 {
		defer s.mu.Unlock()
		return s.version, fmt.Errorf("persist: empty append")
	}
	s.stats.Appends++
	// Phase 1, under the store mutex: write and apply the batch.
	// Concurrent batches serialize here, but the mutex is released
	// before the fsync — the expensive part — so their durability waits
	// overlap and one leader's fsync covers every record written before
	// it (group commit).
	//
	// Every exit that leaves new records behind still syncs before
	// returning: an aborted batch reports its earlier statements as
	// committed, and committed means durable. syncDominates marks the
	// abort reasons (context, unencodable statement) where a sync
	// failure is the graver fact and takes over the returned error;
	// after a write or apply failure the original error dominates.
	committed := 0
	var appendErr error
	syncDominates := false
	var scratch []byte
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			appendErr, syncDominates = err, true
			break
		}
		payload, err := EncodeStatement(st)
		if err != nil {
			s.stats.AppendErrors++
			appendErr, syncDominates = err, true
			break
		}
		offset := s.seg.size
		scratch = appendRecord(scratch[:0], uint64(s.version)+1, payload)
		if err := s.seg.write(scratch); err != nil {
			// The write may have landed partially; roll the file back so
			// the log ends at a record boundary. Earlier records of this
			// batch still get their sync below.
			_ = s.seg.truncateTo(offset)
			appendErr = fmt.Errorf("persist: wal write: %w", err)
			break
		}
		if err := s.vdb.Apply(st); err != nil {
			// WAL-first means the record exists but the statement does
			// not: abort it so recovery replays exactly the committed
			// history.
			s.stats.AppendErrors++
			if terr := s.seg.truncateTo(offset); terr != nil {
				defer s.mu.Unlock()
				return s.version, fmt.Errorf("persist: %v; and failed to roll back its record: %w", err, terr)
			}
			appendErr = err
			break
		}
		committed++
		s.version++
		s.stats.StatementsAppended++
		s.stats.WALBytesWritten += recordSize(len(payload))
		s.commitOff = s.seg.size
	}
	if committed > 0 {
		// Wake WAL followers: the closed channel is the broadcast, the
		// fresh one arms the next advance.
		close(s.verCh)
		s.verCh = make(chan struct{})
	}
	version := s.version
	s.mu.Unlock()

	// Phase 2, outside the store mutex: make the batch durable.
	needSync := committed > 0 && !s.opts.NoSync
	var led bool
	var serr error
	if needSync {
		led, serr = s.waitDurable(version)
	}

	// Phase 3: stats and maintenance under a fresh lock. The rotation
	// and auto-checkpoint conditions are re-evaluated here — another
	// batch may have handled them meanwhile — and skipped entirely if
	// the store closed while we were syncing.
	s.mu.Lock()
	defer s.mu.Unlock()
	if needSync {
		if led {
			s.stats.GroupCommits++
		} else {
			s.stats.SyncsCoalesced++
		}
	}
	if serr != nil {
		serr = fmt.Errorf("persist: wal sync: %w", serr)
		if syncDominates || appendErr == nil {
			return version, serr
		}
	}
	if appendErr != nil {
		return version, appendErr
	}
	if s.closed {
		return version, nil
	}
	if err := s.maybeRotate(); err != nil {
		return version, err
	}
	if s.opts.CheckpointEvery > 0 && s.version-s.stats.LastCheckpointVersion >= s.opts.CheckpointEvery {
		if _, err := s.checkpointLocked(); err != nil {
			return version, fmt.Errorf("persist: auto checkpoint: %w", err)
		}
	}
	return version, nil
}

// waitDurable blocks until every record up to target is fsynced,
// electing one waiter as the sync leader: it captures the active
// segment and the tip version, fsyncs once, and wakes the cohort —
// every batch written before the fsync is covered by it. Records below
// the tip that live in already-rotated segments were synced by the
// rotation, so syncing the active segment suffices. led reports
// whether this call performed an fsync itself; a leader's sync failure
// is returned to the leader, and waiting followers retry as leaders so
// each append observes its own durability outcome.
func (s *Store) waitDurable(target int) (led bool, err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if s.gcCond == nil {
		s.gcCond = sync.NewCond(&s.gcMu)
	}
	for s.gcSynced < target {
		if s.gcInFlight {
			s.gcCond.Wait()
			continue
		}
		s.gcInFlight = true
		led = true
		s.gcMu.Unlock()
		s.mu.Lock()
		seg := s.seg
		covers := s.version
		s.mu.Unlock()
		serr := seg.sync()
		s.gcMu.Lock()
		s.gcInFlight = false
		if serr == nil && covers > s.gcSynced {
			s.gcSynced = covers
		}
		s.gcCond.Broadcast()
		if serr != nil {
			return true, serr
		}
	}
	return led, nil
}

// maybeRotate rolls the active segment once it exceeds SegmentBytes.
func (s *Store) maybeRotate() error {
	if s.seg.size < s.opts.SegmentBytes {
		return nil
	}
	if err := s.seg.sync(); err != nil {
		return err
	}
	if err := s.seg.close(); err != nil {
		return err
	}
	seg, err := createSegment(s.dir, uint64(s.version)+1, !s.opts.NoSync)
	if err != nil {
		return err
	}
	s.seg = seg
	s.stats.Segments++
	s.stats.Rotations++
	s.commitSeg, s.commitOff = seg.firstSeq, seg.size
	return nil
}

// commitPos atomically reports the committed history length together
// with the byte boundary it corresponds to: the first-seq of the
// segment holding the newest committed record and the offset right
// after it. A reader that never crosses the boundary can only observe
// whole committed records.
func (s *Store) commitPos() (version int, seg uint64, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, s.commitSeg, s.commitOff
}

// WaitVersion blocks until the committed history has reached at least
// target statements, ctx ends, or the store closes.
func (s *Store) WaitVersion(ctx context.Context, target int) error {
	for {
		s.mu.Lock()
		if s.version >= target {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("persist: store is closed")
		}
		ch := s.verCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// CheckpointImage returns the raw on-disk bytes of a checkpoint file
// together with the version it materializes — the bootstrap payload a
// replica fetches before tailing the WAL. version < 0 selects the
// newest checkpoint; a checkpoint pruned between selection and read
// falls back to the base. The image is self-validating (the caller
// decodes it with DecodeCheckpoint).
func (s *Store) CheckpointImage(version int) ([]byte, int, error) {
	if version < 0 {
		s.mu.Lock()
		version = s.stats.LastCheckpointVersion
		s.mu.Unlock()
	}
	raw, err := os.ReadFile(checkpointPath(s.dir, version))
	if err != nil && version != 0 && os.IsNotExist(err) {
		version = 0
		raw, err = os.ReadFile(checkpointPath(s.dir, 0))
	}
	if err != nil {
		return nil, 0, err
	}
	return raw, version, nil
}

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	Version  int
	Bytes    int64
	Duration time.Duration
}

// Checkpoint writes a snapshot of the current state, registers it for
// time travel, and prunes old checkpoint files beyond the retention
// count (the base is always kept).
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CheckpointInfo{}, fmt.Errorf("persist: store is closed")
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() (CheckpointInfo, error) {
	start := time.Now()
	ver, db := s.vdb.TipSnapshot()
	n, err := writeCheckpoint(s.dir, ver, db, !s.opts.NoSync)
	if err != nil {
		return CheckpointInfo{}, err
	}
	// The snapshot we just wrote also serves future time travel.
	if err := s.vdb.AddCheckpoint(ver, db); err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{Version: ver, Bytes: n, Duration: time.Since(start)}
	s.stats.CheckpointsWritten++
	s.stats.LastCheckpointVersion = ver
	s.stats.LastCheckpointBytes = n
	s.stats.LastCheckpointDuration = info.Duration
	s.pruneCheckpoints()
	return info, nil
}

// pruneCheckpoints deletes checkpoint files beyond the newest
// RetainCheckpoints (version 0 is never deleted). Best effort: a
// failed delete is ignored; recovery tolerates any mix.
func (s *Store) pruneCheckpoints() {
	_, ckpts, err := listStore(s.dir)
	if err != nil {
		return
	}
	var nonBase []int
	for _, v := range ckpts {
		if v > 0 {
			nonBase = append(nonBase, v)
		}
	}
	for len(nonBase) > s.opts.RetainCheckpoints {
		_ = os.Remove(checkpointPath(s.dir, nonBase[0]))
		nonBase = nonBase[1:]
	}
}

// Close syncs and closes the active segment. The store cannot be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.verCh) // release WaitVersion waiters; they observe closed
	if !s.opts.NoSync {
		if err := s.seg.sync(); err != nil {
			s.seg.close()
			return err
		}
	}
	return s.seg.close()
}
