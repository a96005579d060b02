package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Segment and checkpoint file naming. The zero-padded decimal version
// makes lexicographic order equal numeric order, so a directory
// listing is already the recovery plan.
const (
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	tmpSuffix        = ".tmp"
)

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", segmentPrefix, firstSeq, segmentSuffix))
}

func checkpointPath(dir string, version int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", checkpointPrefix, version, checkpointSuffix))
}

// parseSeqName extracts the numeric part of a prefixed, suffixed file
// name; ok is false for foreign files.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	num := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listStore scans dir and returns the segment first-seqs and checkpoint
// versions present, each ascending. It only reads: a temp file may be a
// checkpoint the writer is staging right now (see sweepTemp).
func listStore(dir string) (segments []uint64, checkpoints []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeqName(name, segmentPrefix, segmentSuffix); ok {
			segments = append(segments, seq)
			continue
		}
		if v, ok := parseSeqName(name, checkpointPrefix, checkpointSuffix); ok {
			checkpoints = append(checkpoints, int(v))
		}
	}
	sort.Slice(segments, func(i, j int) bool { return segments[i] < segments[j] })
	sort.Ints(checkpoints)
	return segments, checkpoints, nil
}

// sweepTemp removes the temp files in dir: leftovers of a crash
// mid-checkpoint — a rename that never happened means the checkpoint
// never existed. Only the paths that own the directory alone call it
// (Open's recovery, Create, RemoveStore); a live store's temp file is
// a checkpoint in flight.
func sweepTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// activeSegment is the segment file currently appended to. Writes and
// truncations run under the store mutex; sync and close additionally
// hold syncMu, because a group-commit leader fsyncs outside the store
// mutex and may race a rotation closing the file it captured — the
// closed flag turns that into a no-op (rotation syncs before closing,
// so a closed segment is already durable).
type activeSegment struct {
	f        *os.File
	path     string
	firstSeq uint64
	size     int64

	syncMu sync.Mutex
	closed bool
}

// createSegment creates and headers a fresh segment whose first record
// will carry firstSeq, syncing the file and its directory so the
// rotation itself is durable.
func createSegment(dir string, firstSeq uint64, sync bool) (*activeSegment, error) {
	path := segmentPath(dir, firstSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendSegmentHeader(nil, firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &activeSegment{f: f, path: path, firstSeq: firstSeq, size: int64(len(hdr))}, nil
}

// openSegmentForAppend reopens an existing segment at the given size
// (recovery's validated end-of-log offset; anything beyond it — a torn
// tail — is truncated away first).
func openSegmentForAppend(path string, firstSeq uint64, size int64) (*activeSegment, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &activeSegment{f: f, path: path, firstSeq: firstSeq, size: size}, nil
}

// write appends raw bytes to the segment.
func (s *activeSegment) write(b []byte) error {
	n, err := s.f.Write(b)
	s.size += int64(n)
	return err
}

// truncateTo rolls the segment back to a byte offset (aborting the
// records written past it) and repositions the write cursor.
func (s *activeSegment) truncateTo(size int64) error {
	if err := s.f.Truncate(size); err != nil {
		return err
	}
	if _, err := s.f.Seek(size, 0); err != nil {
		return err
	}
	s.size = size
	return nil
}

func (s *activeSegment) sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.closed {
		return nil
	}
	return s.f.Sync()
}

func (s *activeSegment) close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Only "directories cannot be fsynced here" errors (EINVAL /
// ENOTSUP on exotic filesystems, permission refusals in containers)
// are ignored — a real I/O failure must surface, or an acknowledged
// segment could vanish with the directory entry on crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || os.IsPermission(err) {
			return nil
		}
		return err
	}
	return nil
}
