package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Options configures a session's durability behavior.
type Options struct {
	// SyncAppends fsyncs the WAL after every append. Off, an acknowledged
	// edit survives a process crash (the write is a completed syscall) but
	// the most recent edits may be lost to a whole-machine power failure.
	SyncAppends bool
	// SnapshotEvery triggers a background compaction once this many records
	// accumulate past the last snapshot. 0 means the default (4096);
	// negative disables automatic compaction (Compact can still be called).
	SnapshotEvery int
}

const defaultSnapshotEvery = 4096

// Session file names inside a session directory.
const (
	WALFile      = "wal.hgl"
	SnapshotFile = "snapshot.hgs"
)

var (
	appendSeconds  = obs.H("store_append_seconds")
	compactSeconds = obs.H("store_compact_seconds")
	recoverSeconds = obs.H("store_recover_seconds")
	recoverTotal   = obs.C("store_recover_total")
	tornTails      = obs.C("store_torn_tail_total")
	// The byte gauges sum the file sizes of every open session; a session
	// leaves them when it closes.
	snapshotBytes = obs.G("store_snapshot_bytes")
	walBytes      = obs.G("store_wal_bytes")
)

// Session is one workspace's durable backing: the open WAL plus the
// compaction state. It implements dynamic.Journal — attach it with
// Workspace.SetJournal (Create and Open do this for you) and every edit is
// persisted before it is acknowledged.
//
// A session is safe for concurrent use. Append runs under the workspace
// lock (the journal contract); Compact may run concurrently with appends —
// records landing while the snapshot is cut are preserved by an epoch
// filter when the log is rewritten.
type Session struct {
	dir  string
	opts Options
	ws   *dynamic.Workspace

	mu         sync.Mutex // guards the WAL fd and counters below
	wal        *os.File
	walSize    int64 // current WAL length (our own offset authority)
	snapSize   int64 // current snapshot file length; 0 before the first
	walRecords int   // records past the last snapshot
	snapEpoch  uint64
	lastEpoch  uint64 // epoch of the most recent acknowledged record
	failed     error  // sticky fail-stop state
	closed     bool

	compactMu  sync.Mutex     // serializes compactions
	compacting atomic.Bool    // one background compaction at a time
	bg         sync.WaitGroup // the in-flight background compaction, awaited by Close
}

// Create initializes a fresh session directory (which must not already hold
// one) and returns the session attached to a new empty workspace built with
// wsOpts.
func Create(dir string, opts Options, wsOpts ...dynamic.Option) (*Session, *dynamic.Workspace, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, name := range []string{WALFile, SnapshotFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, nil, fmt.Errorf("store: %s already holds a session (open it instead)", dir)
		}
	}
	wal, err := os.OpenFile(filepath.Join(dir, WALFile), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if _, err := wal.Write([]byte(walMagic)); err != nil {
		wal.Close()
		return nil, nil, err
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return nil, nil, err
	}
	syncDir(dir)
	s := &Session{dir: dir, opts: opts, wal: wal}
	s.resizeLocked(magicLen, 0)
	ws := dynamic.New(wsOpts...)
	s.ws = ws
	ws.SetJournal(s)
	return s, ws, nil
}

// Open recovers a session directory: restore the snapshot (if any), replay
// the WAL tail, truncate a torn tail, and return the session attached to
// the recovered workspace. The workspace is observationally identical to
// the one that wrote the directory, up to its last acknowledged edit. A
// directory that fails recovery (ErrCorrupt) is left as it was found.
func Open(dir string, opts Options, wsOpts ...dynamic.Option) (*Session, *dynamic.Workspace, error) {
	ctx, sp := obs.StartSpan(context.Background(), "store.recover")
	sp.SetAttr("dir", dir)
	defer sp.End()
	start := time.Now()

	r, err := recoverDir(ctx, dir, wsOpts...)
	if err != nil {
		return nil, nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, WALFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if r.walEnd != r.walLen {
		// Repair: drop the torn suffix so the next append starts on a clean
		// frame boundary, and rewrite the magic of a log that was cut
		// inside it or is missing.
		if err := wal.Truncate(int64(r.walEnd)); err != nil {
			wal.Close()
			return nil, nil, err
		}
		if r.walEnd == magicLen {
			if _, err := wal.WriteAt([]byte(walMagic), 0); err != nil {
				wal.Close()
				return nil, nil, err
			}
		}
		// A failed sync is harmless: a repair that does not survive a
		// crash leaves the same damage for the next Open to cut.
		_ = wal.Sync()
	}
	if r.torn {
		tornTails.Inc()
		sp.SetBool("tornTail", true)
	}
	ws := r.ws
	sp.SetInt("epoch", int64(ws.Epoch()))
	sp.SetInt("tailRecords", int64(r.records))

	s := &Session{
		dir: dir, opts: opts, wal: wal,
		walRecords: r.records,
		snapEpoch:  r.snapEpoch, lastEpoch: ws.Epoch(),
	}
	s.resizeLocked(int64(r.walEnd), r.snapLen)
	s.ws = ws
	ws.SetJournal(s)
	recoverTotal.Inc()
	recoverSeconds.Observe(time.Since(start))
	return s, ws, nil
}

// recovery is what replaying a session directory found.
type recovery struct {
	ws        *dynamic.Workspace
	snapEpoch uint64 // 0: no snapshot
	records   int    // WAL records replayed or skipped
	torn      bool   // the WAL ended in a torn tail
	walEnd    int    // length of the WAL's acknowledged prefix
	walLen    int    // length of the WAL as found; 0 when it is missing
	snapLen   int64  // length of the snapshot file; 0 when it is missing
}

// recoverDir rebuilds a session directory's workspace without writing to
// it: restore the snapshot (or start empty), then replay the WAL records
// past the snapshot epoch in order, requiring epoch contiguity and the
// recorded outcomes. Records the snapshot covers — stale head records left
// by a crash between the snapshot rename and the WAL rewrite — are skipped.
// Open and Verify both run it; only Open repairs what it finds.
func recoverDir(ctx context.Context, dir string, wsOpts ...dynamic.Option) (recovery, error) {
	var r recovery
	if err := fault.HitCtx(ctx, fault.StoreRecover); err != nil {
		return r, err
	}
	st, snapLen, err := readSnapshotFile(filepath.Join(dir, SnapshotFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		r.ws = dynamic.New(wsOpts...)
	case err != nil:
		return r, err
	default:
		if r.ws, err = dynamic.RestoreWorkspace(st, wsOpts...); err != nil {
			return r, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		r.snapEpoch, r.snapLen = st.Epoch, snapLen
	}

	path := filepath.Join(dir, WALFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		// A snapshot with no WAL beside it: an empty log.
		r.walEnd = magicLen
		return r, nil
	}
	if err != nil {
		return r, err
	}
	r.walLen = len(raw)
	ws := r.ws
	r.walEnd, r.torn, err = walkWAL(path, raw, func(off, _ int, rec dynamic.JournalRecord) error {
		r.records++
		if rec.Epoch <= r.snapEpoch {
			return nil
		}
		if rec.Epoch != ws.Epoch()+1 {
			return fmt.Errorf("%w: %s at offset %d: epoch %d after %d", ErrCorrupt, path, off, rec.Epoch, ws.Epoch())
		}
		if err := applyRecord(ws, rec); err != nil {
			return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, path, off, err)
		}
		return nil
	})
	return r, err
}

// applyRecord replays one edit into ws, checking that the outcome matches
// what was recorded at append time.
func applyRecord(ws *dynamic.Workspace, rec dynamic.JournalRecord) error {
	switch rec.Op {
	case dynamic.JournalAddEdge:
		id, err := ws.AddEdge(rec.Nodes...)
		if err != nil {
			return err
		}
		if id != rec.Edge {
			return fmt.Errorf("replayed AddEdge issued id %d, recorded %d", id, rec.Edge)
		}
	case dynamic.JournalRemoveEdge:
		return ws.RemoveEdge(rec.Edge)
	case dynamic.JournalRenameNode:
		return ws.RenameNode(rec.Old, rec.New)
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
	return nil
}

// Dir returns the session's directory.
func (s *Session) Dir() string { return s.dir }

// Epoch returns the epoch of the last acknowledged (durable) edit.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// Dirty reports whether the session holds acknowledged edits not yet folded
// into the snapshot — i.e. whether a Compact would change the files.
func (s *Session) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords > 0
}

// Err returns the sticky failure, if the session has fail-stopped.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Append implements dynamic.Journal: frame the record, write it to the WAL,
// and only then let the workspace apply the edit. Runs under the workspace
// lock. Any failure aborts the edit; a failure that may have left partial
// bytes (a torn write) additionally fail-stops the session — the on-disk
// prefix stays consistent and the next Open repairs the tail.
func (s *Session) Append(rec dynamic.JournalRecord) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return errors.New("store: session closed")
	}
	if rec.Epoch != s.lastEpoch+1 {
		return fmt.Errorf("store: append epoch %d after %d (journal attached mid-history?)", rec.Epoch, s.lastEpoch)
	}
	frame := appendFrame(nil, encodeRecord(nil, rec))

	if err := fault.Hit(fault.StoreAppend); err != nil {
		if errors.Is(err, fault.ErrTorn) && len(frame) > 1 {
			// Simulate a crash mid-write: half a frame lands, then the
			// session fail-stops exactly as a real torn write would below.
			s.wal.WriteAt(frame[:len(frame)/2], s.walSize)
			s.failed = fmt.Errorf("%w: %w", ErrSessionFailed, err)
			return s.failed
		}
		return err
	}

	n, err := s.wal.WriteAt(frame, s.walSize)
	if err != nil {
		if n > 0 {
			// Partial frame on disk: try to erase it; keep serving only if
			// the erase provably succeeded.
			if terr := s.wal.Truncate(s.walSize); terr != nil {
				s.failed = fmt.Errorf("%w: torn append not repaired: %v", ErrSessionFailed, terr)
				return s.failed
			}
		}
		return err
	}
	if s.opts.SyncAppends {
		if err := s.wal.Sync(); err != nil {
			// The write may or may not be durable; refuse to acknowledge
			// and fail-stop (the in-memory edit is aborted, so a surviving
			// frame is a stale tail the next Open replays harmlessly —
			// epoch contiguity still holds because nothing after it was
			// acknowledged either).
			s.failed = fmt.Errorf("%w: wal sync: %v", ErrSessionFailed, err)
			return s.failed
		}
	}
	s.resizeLocked(s.walSize+int64(len(frame)), s.snapSize)
	s.walRecords++
	s.lastEpoch = rec.Epoch
	appendSeconds.Observe(time.Since(start))

	if every := s.snapshotEveryLocked(); every > 0 && s.walRecords >= every && s.compacting.CompareAndSwap(false, true) {
		s.bg.Add(1)
		go s.compactAsync()
	}
	return nil
}

func (s *Session) snapshotEveryLocked() int {
	if s.opts.SnapshotEvery < 0 {
		return 0
	}
	if s.opts.SnapshotEvery == 0 {
		return defaultSnapshotEvery
	}
	return s.opts.SnapshotEvery
}

// compactAsync runs a threshold-triggered compaction off the edit path. An
// injected panic at store.snapshot must not crash the process: compaction
// is advisory (the WAL alone is a correct, if long, history).
func (s *Session) compactAsync() {
	defer s.bg.Done()
	defer s.compacting.Store(false)
	defer func() {
		if r := recover(); r != nil {
			// Swallow: the session keeps appending; the next threshold
			// crossing retries.
			_ = r
		}
	}()
	_ = s.Compact()
}

// Compact cuts a snapshot of the workspace's current state and rewrites the
// WAL to hold only records past it. Appends may land concurrently — the
// rewrite keeps every record newer than the snapshot's epoch, so nothing
// acknowledged is ever dropped. Crash-safe at every step: the snapshot
// replaces atomically, and a crash between the two file updates leaves
// stale-but-skippable WAL head records, not corruption.
func (s *Session) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	ctx, sp := obs.StartSpan(context.Background(), "store.compact")
	sp.SetAttr("dir", s.dir)
	defer sp.End()
	start := time.Now()

	if err := s.Err(); err != nil {
		return err
	}
	if err := fault.HitCtx(ctx, fault.StoreSnapshot); err != nil {
		if errors.Is(err, fault.ErrTorn) {
			// Simulate a crash mid-snapshot-write: a partial temp file is
			// left behind; the live snapshot is untouched and the session
			// keeps serving (compaction is advisory, so no fail-stop).
			os.WriteFile(filepath.Join(s.dir, SnapshotFile+".tmp"), []byte("torn"), 0o644)
		}
		sp.SetAttr("error", err.Error())
		return err
	}

	st := s.ws.ExportState() // takes the workspace lock; s.mu is NOT held
	s.mu.Lock()
	upToDate := st.Epoch == s.snapEpoch && s.walRecords == 0
	s.mu.Unlock()
	if upToDate {
		return nil
	}
	size, err := writeSnapshotFile(filepath.Join(s.dir, SnapshotFile), st)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	sp.SetInt("snapshotBytes", size)
	sp.SetInt("epoch", int64(st.Epoch))

	// Rewrite the WAL without the records the snapshot now covers. Under
	// s.mu so no append interleaves with the swap.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resizeLocked(s.walSize, size)
	if s.failed != nil {
		return s.failed
	}
	if err := s.rewriteWALLocked(st.Epoch); err != nil {
		// The snapshot landed but the log still has pre-snapshot records;
		// recovery skips them by epoch, so this is a space leak, not a
		// correctness problem, unless the WAL fd is now suspect (the
		// rewrite fail-stops that itself). ErrCorrupt, a damaged
		// acknowledged frame, fail-stops here: the log is left as it is and
		// the next Open refuses it, so no later edit may be acknowledged.
		if errors.Is(err, ErrCorrupt) {
			s.failed = fmt.Errorf("%w: %w", ErrSessionFailed, err)
		}
		sp.SetAttr("error", err.Error())
		return err
	}
	s.snapEpoch = st.Epoch
	compactSeconds.Observe(time.Since(start))
	return nil
}

// rewriteWALLocked replaces the WAL with one holding only records newer
// than epoch. Called with s.mu held.
func (s *Session) rewriteWALLocked(epoch uint64) error {
	path := filepath.Join(s.dir, WALFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Read only the acknowledged bytes, never resurrecting any past our own
	// offset. They are whole frames, so a torn tail among them is damage.
	raw = raw[:min(int64(len(raw)), s.walSize)]
	out := make([]byte, 0, 1024)
	out = append(out, walMagic...)
	kept := 0
	_, torn, err := walkWAL(path, raw, func(off, size int, rec dynamic.JournalRecord) error {
		if rec.Epoch > epoch {
			out = append(out, raw[off:off+size]...)
			kept++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		return fmt.Errorf("%w: %s: damaged frame among acknowledged records", ErrCorrupt, path)
	}
	if err := writeFileAtomic(path, out); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		s.failed = fmt.Errorf("%w: WAL reopen after rewrite: %v", ErrSessionFailed, err)
		return s.failed
	}
	s.wal.Close()
	s.wal = f
	s.resizeLocked(int64(len(out)), s.snapSize)
	s.walRecords = kept
	return nil
}

// resizeLocked records the session's new WAL and snapshot sizes and moves
// the store's byte gauges by the change; a closed session, whose bytes
// Close already took out of the gauges, moves them no more. Called with
// s.mu held, or before the session is shared.
func (s *Session) resizeLocked(wal, snap int64) {
	if !s.closed {
		walBytes.Add(wal - s.walSize)
		snapshotBytes.Add(snap - s.snapSize)
	}
	s.walSize, s.snapSize = wal, snap
}

// Close releases the WAL file handle. It does not flush a final snapshot —
// that is the caller's policy (the server's Drain compacts dirty sessions
// first). It waits out an in-flight background compaction, so nothing
// writes to the directory once Close returns. Safe to call twice.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	// No compaction starts past this point: Append refuses a closed
	// session before it can cross the threshold. Its bytes leave the
	// gauges now; the files' sizes stay recorded.
	walBytes.Add(-s.walSize)
	snapshotBytes.Add(-s.snapSize)
	s.closed = true
	s.mu.Unlock()
	s.bg.Wait() // the compaction takes s.mu to swap the WAL, so wait unlocked
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// --- offline inspection ---

// Info is a session directory's recovered identity, as reported by Verify.
type Info struct {
	Dir           string `json:"dir"`
	SnapshotEpoch uint64 `json:"snapshotEpoch"` // 0: no snapshot yet
	Epoch         uint64 `json:"epoch"`         // after tail replay
	TailRecords   int    `json:"tailRecords"`   // WAL records replayed or skipped
	TornTail      bool   `json:"tornTail"`      // WAL ended in a torn frame
	Edges         int    `json:"edges"`
	Nodes         int    `json:"nodes"`
	Components    int    `json:"components"`
	Acyclic       bool   `json:"acyclic"`
	Digest        string `json:"digest"` // canonical content digest, hex
}

// Verify recovers a session directory read-only — the recovery Open runs,
// in memory: a torn tail is reported, not repaired — and returns what a
// server booting on it would see. It is the engine behind `hgtool ws`.
func Verify(dir string) (Info, error) {
	ctx, sp := obs.StartSpan(context.Background(), "store.verify")
	sp.SetAttr("dir", dir)
	defer sp.End()
	r, err := recoverDir(ctx, dir)
	if err != nil {
		return Info{}, err
	}
	ws := r.ws
	d := ws.ContentDigest()
	return Info{
		Dir:           dir,
		SnapshotEpoch: r.snapEpoch,
		Epoch:         ws.Epoch(),
		TailRecords:   r.records,
		TornTail:      r.torn,
		Edges:         ws.NumEdges(),
		Nodes:         ws.NumNodes(),
		Components:    ws.NumComponents(),
		Acyclic:       ws.Analysis().Verdict(),
		Digest:        fmt.Sprintf("%016x%016x", d.Hi, d.Lo),
	}, nil
}

// ScanWAL streams a WAL file's records in order, stopping at a torn tail
// (reported via the return, not an error). A bad magic, a damaged frame
// before the tail or an undecodable record is ErrCorrupt. The callback
// returning an error stops the scan.
func ScanWAL(path string, fn func(rec dynamic.JournalRecord) error) (torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	_, torn, err = walkWAL(path, raw, func(_, _ int, rec dynamic.JournalRecord) error { return fn(rec) })
	return torn, err
}

// ListSessions returns the names of the session directories under a data
// directory (directories holding a WAL or snapshot), sorted.
func ListSessions(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		for _, name := range []string{WALFile, SnapshotFile} {
			if _, err := os.Stat(filepath.Join(dataDir, e.Name(), name)); err == nil {
				out = append(out, e.Name())
				break
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
