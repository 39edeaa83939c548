package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// On-disk layout: one subdirectory per graph ID holding
//
//	snapshot.bin   magic ∥ uvarint-len metaJSON ∥ binary CSR graph ∥ SHA-256(payload)
//	snapshot.map   a graph.WCCM1 file with metaJSON embedded in its
//	               header page — the out-of-core snapshot format,
//	               written instead of snapshot.bin once a record's
//	               edge count reaches Config.MappedThreshold; served
//	               directly off an mmap (or pread) of the file
//	wal.log        magic ∥ records, each: uvarint len ∥ payload ∥ SHA-256(payload)
//	               payload = uvarint-len metaJSON(Version) ∥ uvarint count ∥ count × (uvarint u ∥ uvarint v)
//
// A record has exactly one live snapshot file; the other format may
// transiently exist across the crash window of a format-switching
// compaction, in which case open keeps the higher-versioned file and
// sweeps the stale one. Snapshots are written to a temp file, fsync'd,
// and renamed into place — they are never torn. WAL records are
// fsync'd before Append returns; a crash mid-write leaves a torn tail
// that open detects (by its per-record digest) and truncates away,
// which can only drop an append the caller was never told succeeded.
// On open every surviving record's chained version digest is
// re-verified against the lineage, so silent corruption cannot replay
// into a wrong graph.
//
// The WAL holds the batches above the snapshot's version: between
// RetainVersions−1 and 2·RetainVersions−2 of them once a compaction has
// run (fewer before the first), and more only while a triggered
// compaction is still pending or in flight. Compaction rewrites
// snapshot.* first and wal.log second, so the WAL may transiently hold
// batches at or below the snapshot's version; replay skips them.
const (
	snapMagic = "WCCSNAP1"
	walMagic  = "WCCWAL1\n"
	snapFile  = "snapshot.bin"
	mapFile   = "snapshot.map"
	walFile   = "wal.log"
	probeFile = ".probe"
)

// walState pairs a graph's open WAL handle with the byte length of its
// verified prefix. The length is what makes a failed Append safe to
// retry: the record is rolled back (truncate to size) before the error
// surfaces, so a retried append can never land behind a torn record —
// which replay would otherwise truncate away, losing an acknowledged
// write.
type walState struct {
	f    fault.File
	size int64
	// dirty marks a WAL whose failed append could not be rolled back
	// (the truncate itself failed): its on-disk tail is unknown, so
	// further appends are refused until a reopen re-verifies the file.
	dirty bool
}

// snapMeta is the JSON metadata block of a snapshot file.
type snapMeta struct {
	Meta Meta    `json:"meta"`
	Seq  int64   `json:"seq"`
	Ver  Version `json:"version"` // the version this snapshot materializes
}

// Disk is the durable Store: per-graph snapshot + WAL under one data
// directory, with LRU eviction deleting graph directories and a
// compaction worker folding WAL batches into a fresh snapshot once a
// full extra retained window has accumulated (see needsCompaction).
type Disk struct {
	dir string
	cfg Config
	// fs is the filesystem seam every durable operation goes through
	// (Config.FS; the real OS by default). Chaos tests and wccserve
	// -fault-spec swap in a fault-injected one — the failure model in
	// README.md is proven against the sites this seam names.
	fs fault.FS

	mu   sync.Mutex
	t    *table
	wals map[string]*walState
	// maps holds the store's own reference on each mapped record's
	// snapshot mapping, mirroring wals: eviction and Close release
	// through here (under s.mu), compaction swaps here, and in-flight
	// views keep their own references — the refcount, not this table,
	// decides when the pages actually unmap.
	maps   map[string]*mappedHandle
	seq    int64
	closed bool

	compactCh chan string
	done      chan struct{}
	wg        sync.WaitGroup
}

// Open loads (or creates) a disk store rooted at dir, verifying every
// snapshot digest and replaying every WAL. A torn WAL tail (crash
// mid-append) is truncated; a corrupt snapshot or a chain-digest
// mismatch is a hard error — the store refuses to serve state it
// cannot vouch for.
func Open(dir string, cfg Config) (*Disk, error) {
	cfg = cfg.withDefaults()
	s := &Disk{
		dir:       dir,
		cfg:       cfg,
		fs:        cfg.FS,
		t:         newTable(),
		wals:      make(map[string]*walState),
		maps:      make(map[string]*mappedHandle),
		compactCh: make(chan string, 64),
		done:      make(chan struct{}),
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []*record
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		rec, wal, err := s.load(ent.Name())
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// A crash between graph-directory creation and the
				// snapshot rename leaves a directory with no snapshot:
				// nothing in it was ever acknowledged (Put acks only after
				// the rename), so sweep the husk instead of refusing to
				// open the whole store. TestCrashPointSweep hits this.
				s.fs.RemoveAll(filepath.Join(dir, ent.Name()))
				continue
			}
			return nil, fmt.Errorf("store: graph %s: %w", ent.Name(), err)
		}
		recs = append(recs, rec)
		s.wals[rec.meta.ID] = wal
		if rec.mapped != nil {
			s.maps[rec.meta.ID] = rec.mapped
		}
		if rec.seq >= s.seq {
			s.seq = rec.seq + 1
		}
	}
	// First-stored order survives restarts via the persisted sequence
	// number; recency restarts from that same order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, rec := range recs {
		s.t.insert(rec)
	}
	s.wg.Add(1)
	go s.compactor()
	// Anything already past the compaction trigger (e.g. killed before a
	// pending compaction) is folded now.
	for _, rec := range recs {
		s.maybeCompact(rec.meta.ID, rec)
	}
	return s, nil
}

// load reads one graph directory: snapshot (either format), then WAL
// replay. When both formats exist — the crash window of a
// format-switching compaction, which renames the new snapshot before
// removing the old one — the higher-versioned file wins and the stale
// one is swept. Picking the lower one would strand the WAL: batches up
// to the newer snapshot's version are already folded in, so replay
// would hit a version gap.
func (s *Disk) load(id string) (*record, *walState, error) {
	gdir := filepath.Join(s.dir, id)
	binRec, binErr := s.loadBinarySnapshot(gdir, id)
	if binErr != nil && !errors.Is(binErr, os.ErrNotExist) {
		return nil, nil, binErr
	}
	mapRec, mapErr := s.loadMappedSnapshot(gdir, id)
	if mapErr != nil && !errors.Is(mapErr, os.ErrNotExist) {
		return nil, nil, mapErr
	}
	var rec *record
	switch {
	case binRec != nil && mapRec != nil:
		if mapRec.snapVer.Version >= binRec.snapVer.Version {
			rec = mapRec
			s.fs.Remove(filepath.Join(gdir, snapFile))
		} else {
			rec = binRec
			mapRec.mapped.release()
			s.fs.Remove(filepath.Join(gdir, mapFile))
		}
	case mapRec != nil:
		rec = mapRec
	case binRec != nil:
		rec = binRec
	default:
		// Neither snapshot exists: a husk directory (see Open).
		return nil, nil, binErr
	}
	wal, err := s.replayWAL(gdir, rec)
	if err != nil {
		if rec.mapped != nil {
			rec.mapped.release()
		}
		return nil, nil, err
	}
	return rec, wal, nil
}

// loadBinarySnapshot reads and verifies a WCCB1-era snapshot.bin.
func (s *Disk) loadBinarySnapshot(gdir, id string) (*record, error) {
	data, err := s.fs.ReadFile(filepath.Join(gdir, snapFile))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+sha256.Size {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("snapshot: digest mismatch (corrupt file)")
	}
	if string(payload[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	r := bytes.NewReader(payload[len(snapMagic):])
	metaRaw, err := readBlock(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot meta: %w", err)
	}
	var sm snapMeta
	if err := json.Unmarshal(metaRaw, &sm); err != nil {
		return nil, fmt.Errorf("snapshot meta: %w", err)
	}
	if sm.Meta.ID != id {
		return nil, fmt.Errorf("snapshot names graph %s, directory is %s", sm.Meta.ID, id)
	}
	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot graph: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", r.Len())
	}
	if g.N() != sm.Ver.N || g.M() != sm.Ver.M {
		return nil, fmt.Errorf("snapshot graph is n=%d m=%d, metadata says n=%d m=%d", g.N(), g.M(), sm.Ver.N, sm.Ver.M)
	}
	if sm.Ver.Version == 0 && DigestGraph(g) != sm.Meta.Digest {
		return nil, fmt.Errorf("snapshot content does not match its digest")
	}
	return &record{meta: sm.Meta, seq: sm.Seq, snap: g, snapVer: sm.Ver}, nil
}

// loadMappedSnapshot maps and verifies a WCCM1 snapshot.map. All three
// trailer digests, the adjacency range checks, and the offset shape
// are verified by graph.OpenMappedSource in one streaming pass that
// never builds the graph on the heap; the v0 content digest is then
// re-derived the same way.
func (s *Disk) loadMappedSnapshot(gdir, id string) (*record, error) {
	path := filepath.Join(gdir, mapFile)
	m, err := s.fs.Map(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot map: %w", err)
	}
	mg, err := graph.OpenMappedSource(m)
	if err != nil {
		m.Unmap()
		return nil, fmt.Errorf("snapshot map: %w", err)
	}
	var sm snapMeta
	if err := json.Unmarshal(mg.Meta(), &sm); err != nil {
		m.Unmap()
		return nil, fmt.Errorf("snapshot map meta: %w", err)
	}
	if sm.Meta.ID != id {
		m.Unmap()
		return nil, fmt.Errorf("snapshot names graph %s, directory is %s", sm.Meta.ID, id)
	}
	if mg.NumVertices() != sm.Ver.N || mg.NumEdges() != sm.Ver.M {
		m.Unmap()
		return nil, fmt.Errorf("snapshot graph is n=%d m=%d, metadata says n=%d m=%d", mg.NumVertices(), mg.NumEdges(), sm.Ver.N, sm.Ver.M)
	}
	if sm.Ver.Version == 0 && DigestView(mg) != sm.Meta.Digest {
		m.Unmap()
		return nil, fmt.Errorf("snapshot content does not match its digest")
	}
	return &record{meta: sm.Meta, seq: sm.Seq, snapVer: sm.Ver, mapped: newMappedHandle(m, mg)}, nil
}

// mappedFor reports whether a snapshot with m edges belongs in the
// mapped format.
func (s *Disk) mappedFor(m int) bool {
	return s.cfg.MappedThreshold > 0 && int64(m) >= s.cfg.MappedThreshold
}

// openMapped maps a snapshot file this process just wrote and wraps it
// in a refcounted handle. No metadata re-verification: the bytes were
// produced moments ago by MappedWriter (OpenMappedSource still checks
// the digests, which doubles as an end-to-end write check).
func (s *Disk) openMapped(path string) (*mappedHandle, error) {
	m, err := s.fs.Map(path)
	if err != nil {
		return nil, err
	}
	mg, err := graph.OpenMappedSource(m)
	if err != nil {
		m.Unmap()
		return nil, err
	}
	return newMappedHandle(m, mg), nil
}

// replayWAL reads the graph's WAL into rec, truncating a torn tail, and
// returns the file reopened for appending along with its verified length.
func (s *Disk) replayWAL(gdir string, rec *record) (*walState, error) {
	path := filepath.Join(gdir, walFile)
	data, err := s.fs.ReadFile(path)
	if os.IsNotExist(err) {
		// Crash between snapshot write and WAL creation in Put: the
		// graph exists with no appends yet.
		data = nil
	} else if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	good := 0
	if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
		good = len(walMagic)
	} else if len(data) < len(walMagic) && string(data) == walMagic[:len(data)] {
		// A crash between Put's snapshot rename and the completed header
		// write leaves a strict prefix of the magic — a torn write of a
		// file nobody was told exists yet. Recreate it rather than brick
		// the whole store on open.
		data = nil
	} else if len(data) > 0 {
		return nil, fmt.Errorf("wal: bad magic")
	}
	prev := rec.snapVer
	for good < len(data) {
		v, batch, next, ok := DecodeRecord(data, good)
		if !ok {
			// Torn or corrupt tail: everything from here on is a write
			// that never finished (fsync never returned success for it).
			break
		}
		if v.Version <= rec.snapVer.Version {
			// A compaction crash can leave the old WAL beside the new
			// snapshot; batches the snapshot already folded are skipped.
			good = next
			continue
		}
		if v.Version != prev.Version+1 {
			return nil, fmt.Errorf("wal: version %d follows %d (gap)", v.Version, prev.Version)
		}
		if want := ChainDigest(prev.Digest, v.N, batch); v.Digest != want {
			return nil, fmt.Errorf("wal: version %d digest mismatch (chain broken)", v.Version)
		}
		rec.appendLocked(batch, v)
		prev = v
		good = next
	}
	if good == 0 && len(data) == 0 {
		// No WAL at all: create it fresh with its header.
		if err := s.writeWALHeader(path); err != nil {
			return nil, err
		}
		good = len(walMagic)
	} else if good < len(data) {
		if err := s.fs.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("wal truncate: %w", err)
		}
	}
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal reopen: %w", err)
	}
	return &walState{f: f, size: int64(good)}, nil
}

func (s *Disk) writeWALHeader(path string) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBlock reads a uvarint-length-prefixed byte block.
func readBlock(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("block length %d exceeds remaining %d bytes", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := r.Read(out); err != nil {
		return nil, err
	}
	return out, nil
}

func appendBlock(dst, block []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(block)))
	return append(dst, block...)
}

// encodeSnapshot renders the full snapshot file contents.
func encodeSnapshot(sm snapMeta, g *graph.Graph) ([]byte, error) {
	metaRaw, err := json.Marshal(sm)
	if err != nil {
		return nil, err
	}
	payload := append([]byte(snapMagic), appendBlock(nil, metaRaw)...)
	var gbuf bytes.Buffer
	if err := graph.WriteBinary(&gbuf, g); err != nil {
		return nil, err
	}
	payload = append(payload, gbuf.Bytes()...)
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...), nil
}

// writeAtomic writes path via a temp file + fsync + rename, so readers
// see the old file or the whole new one, never a torn one.
func (s *Disk) writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := s.writeTemp(path, write)
	if err != nil {
		return err
	}
	return s.fs.Rename(tmp, path)
}

// writeBytes is a writeTemp body that writes data verbatim.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// writeTemp is the first half of an atomic file write: it creates
// path+".tmp", fills it with write, fsyncs and closes it, and returns
// the temp path for the caller to rename into place. The leftover .tmp
// of a failed attempt is removed best-effort — load never reads it, so
// a crash between write and cleanup costs only disk.
func (s *Disk) writeTemp(path string, write func(io.Writer) error) (string, error) {
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// syncDir flushes directory metadata (renames, creates); best-effort on
// platforms where directories cannot be fsync'd.
func (s *Disk) syncDir(dir string) {
	s.fs.SyncDir(dir)
}

func (s *Disk) Put(meta Meta, base *graph.Graph, v0 Version) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if _, ok := s.t.recs[meta.ID]; ok {
		return nil, fmt.Errorf("store: graph %s already present", meta.ID)
	}
	gdir := filepath.Join(s.dir, meta.ID)
	if err := s.fs.MkdirAll(gdir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{meta: meta, seq: s.seq, snapVer: v0}
	s.seq++
	sm := snapMeta{Meta: meta, Seq: rec.seq, Ver: v0}
	if s.mappedFor(v0.M) {
		// Out-of-core record: stream the WCCM1 snapshot, then serve off
		// its mapping — the caller's in-RAM base is not retained.
		metaRaw, err := json.Marshal(sm)
		if err != nil {
			return nil, err
		}
		mpath := filepath.Join(gdir, mapFile)
		if err := s.writeAtomic(mpath, func(w io.Writer) error {
			return graph.WriteMappedView(w, base, base.N(), nil, metaRaw)
		}); err != nil {
			return nil, err
		}
		h, err := s.openMapped(mpath)
		if err != nil {
			return nil, err
		}
		rec.mapped = h
	} else {
		rec.snap = base
		snap, err := encodeSnapshot(sm, base)
		if err != nil {
			return nil, err
		}
		if err := s.writeAtomic(filepath.Join(gdir, snapFile), writeBytes(snap)); err != nil {
			return nil, err
		}
	}
	// From here on a failure must drop the mapping the record just took.
	fail := func(err error) ([]string, error) {
		if rec.mapped != nil {
			rec.mapped.release()
		}
		return nil, err
	}
	walPath := filepath.Join(gdir, walFile)
	if err := s.writeWALHeader(walPath); err != nil {
		return fail(err)
	}
	s.syncDir(gdir)
	s.syncDir(s.dir)
	wal, err := s.fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	s.t.insert(rec)
	s.wals[meta.ID] = &walState{f: wal, size: int64(len(walMagic))}
	if rec.mapped != nil {
		s.maps[meta.ID] = rec.mapped
	}
	var evicted []string
	for s.cfg.MaxGraphs > 0 && len(s.t.recs) > s.cfg.MaxGraphs {
		id, ok := s.t.lruVictim()
		if !ok {
			break
		}
		s.evictLocked(id)
		evicted = append(evicted, id)
	}
	return evicted, nil
}

func (s *Disk) Get(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return Meta{}, false
	}
	s.t.touch(r)
	return r.meta, true
}

func (s *Disk) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.list()
}

func (s *Disk) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.t.recs)
}

// rec looks a record up and bumps recency.
func (s *Disk) rec(id string) (*record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: graph %s", ErrNotFound, id)
	}
	s.t.touch(r)
	return r, nil
}

func (s *Disk) Append(id string, batch []graph.Edge, v Version) error {
	r, err := s.rec(id)
	if err != nil {
		return err
	}
	data, err := EncodeRecord(v, batch)
	if err != nil {
		return err
	}
	// The WAL state is re-read under the record lock: a concurrent
	// compaction swaps it (and closes the old handle) while holding r.mu,
	// so ws's fields are stable for the rest of this critical section.
	r.mu.Lock()
	s.mu.Lock()
	ws := s.wals[id]
	s.mu.Unlock()
	if ws == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: graph %s", ErrNotFound, id)
	}
	if ws.dirty {
		r.mu.Unlock()
		return fmt.Errorf("store: wal for %s in unknown state after a failed rollback; reopen the store to re-verify it", id)
	}
	if _, err := ws.f.Write(data); err != nil {
		s.rollbackWAL(id, ws)
		r.mu.Unlock()
		return fmt.Errorf("store: wal append: %w", err)
	}
	if err := ws.f.Sync(); err != nil {
		s.rollbackWAL(id, ws)
		r.mu.Unlock()
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	ws.size += int64(len(data))
	r.appendLocked(batch, v)
	r.mu.Unlock()
	s.maybeCompact(id, r)
	return nil
}

// rollbackWAL restores the WAL to its last verified length after a
// failed append, so the caller may retry: without the truncate, the
// retried record would land behind the torn bytes of the failed one,
// and replay would cut both away — silently losing a write the retry
// acknowledged. The handle is O_APPEND, so after the truncate the next
// write lands at the restored end; no reopen is needed. If the rollback
// itself fails, the WAL tail is unknown and the state is marked dirty:
// every further append is refused until a store reopen re-verifies the
// file record by record. Callers hold r.mu.
func (s *Disk) rollbackWAL(id string, ws *walState) {
	path := filepath.Join(s.dir, id, walFile)
	if err := s.fs.Truncate(path, ws.size); err != nil {
		ws.dirty = true
		log.Printf("store: wal rollback for %s to %d bytes failed: %v (appends disabled until reopen)", id, ws.size, err)
	}
}

// needsCompaction is the amortized trigger: compact only once the WAL
// holds a full extra window — 2R−1 batches on top of the snapshot, for
// R = RetainVersions. Folding to the oldest retained version then leaves
// R−1 batches, so a graph rewrites its O(n+m) snapshot once per R
// appends instead of once per append, and the WAL stays bounded at 2R−2
// batches between compactions. Callers hold r.mu.
func (s *Disk) needsCompaction(r *record) bool {
	return len(r.batches)+1 > 2*s.cfg.RetainVersions-1
}

// maybeCompact schedules (or, with SyncCompaction, runs) a compaction
// if the graph's WAL has crossed the amortized trigger.
func (s *Disk) maybeCompact(id string, r *record) {
	r.mu.Lock()
	over := s.needsCompaction(r)
	r.mu.Unlock()
	if !over {
		return
	}
	if s.cfg.SyncCompaction {
		s.logCompact(id)
		return
	}
	select {
	case s.compactCh <- id:
	default: // worker busy and queue full; the next append re-triggers
	}
}

// logCompact runs one compaction and reports failures: the files stay
// valid on error, but the operator must hear about a WAL that cannot
// shrink.
func (s *Disk) logCompact(id string) {
	if err := s.compact(id); err != nil {
		log.Printf("store: compact %s: %v", id, err)
	}
}

func (s *Disk) compactor() {
	defer s.wg.Done()
	for {
		select {
		case id := <-s.compactCh:
			s.logCompact(id)
		case <-s.done:
			return
		}
	}
}

// errEvicted aborts a compaction whose record was evicted (and possibly
// re-stored under the same content address) while its snapshot was
// being written; compact reports it as a no-op.
var errEvicted = errors.New("store: record evicted during compaction")

// renameLive renames a compaction's temp file into place, and then
// removes stale (the other snapshot format, or "" for none), only while
// r is still the live record for id. Compaction writes its snapshot
// without any lock held, so an eviction — and a Put of the same content
// address into a fresh directory — can happen meanwhile; without the
// check the stale lineage would overwrite the new record's files. Put
// holds s.mu for its whole write, so the check and the rename are atomic
// with respect to it.
func (s *Disk) renameLive(id string, r *record, tmp, path, stale string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.t.recs[id] != r {
		s.fs.Remove(tmp)
		return errEvicted
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	if stale != "" {
		s.fs.Remove(stale)
	}
	return nil
}

// compact folds every WAL batch older than the retained window into a
// fresh snapshot at the window's oldest version, then rewrites the WAL
// with only the batches newer than it. It runs in three steps so that
// neither appends nor readers of the graph wait for the O(n+m) snapshot
// rewrite:
//
//  1. Under r.mu: re-check the trigger (a stale or duplicate request is
//     a no-op), claim the record's single compaction slot, pin the
//     base, and capture the target version with its prefix of
//     r.appended. The prefix is append-only, so it stays valid once the
//     lock is released.
//  2. Unlocked: build the snapshot — materialize and encode WCCB1, or
//     stream WCCM1 straight off the base view — then fsync and rename
//     it into place.
//  3. Under r.mu again: rewrite the WAL with every batch newer than the
//     target, including any appended during step 2; fsync, rename,
//     sync the directory, and swap the in-memory state.
//
// Crash-safe: the snapshot rename lands first (old WAL records it
// already covers are skipped on open by their version), the WAL rename
// second. A failure leaves the pre-compaction files fully valid — the
// error is reported so a persistently failing compaction (ENOSPC) is
// visible instead of a silently growing WAL.
func (s *Disk) compact(id string) error {
	s.mu.Lock()
	r, ok := s.t.recs[id]
	s.mu.Unlock()
	if !ok {
		return nil // evicted while queued
	}
	r.mu.Lock()
	if r.compacting || !s.needsCompaction(r) {
		r.mu.Unlock()
		return nil
	}
	target := r.window(s.cfg.RetainVersions)[0]
	targetOff, err := r.offOf(target.Version, s.cfg.RetainVersions)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	// Pin the base for the unlocked write: a concurrent eviction may drop
	// the store's reference on the mapping mid-stream, and these scans
	// must keep their pages until done.
	base, unpin, ok := r.pinBase()
	if !ok {
		r.mu.Unlock()
		return nil // evicted; nothing left to compact
	}
	r.compacting = true
	prefix := r.appended[:targetOff]
	baseMapped := r.mapped != nil
	r.mu.Unlock()

	sm := snapMeta{Meta: r.meta, Seq: r.seq, Ver: target}
	newSnap, newHandle, err := s.writeCompactedSnapshot(id, r, sm, base, baseMapped, prefix)
	unpin()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.compacting = false
	if errors.Is(err, errEvicted) {
		return nil
	}
	if err != nil {
		return err
	}
	// A failure past this point keeps the old record state; the freshly
	// mapped handle must not leak.
	fail := func(err error) error {
		if newHandle != nil {
			newHandle.release()
		}
		if errors.Is(err, errEvicted) {
			return nil
		}
		return err
	}
	// Rewrite the WAL with the batches the new snapshot does not cover.
	walData := []byte(walMagic)
	var kept []batchMeta
	prevOff := 0
	for _, b := range r.batches {
		if b.v.Version > target.Version {
			recData, err := EncodeRecord(b.v, r.appended[prevOff:b.off])
			if err != nil {
				return fail(fmt.Errorf("encode wal record %d: %w", b.v.Version, err))
			}
			walData = append(walData, recData...)
			kept = append(kept, batchMeta{v: b.v, off: b.off - targetOff})
		}
		prevOff = b.off
	}
	gdir := filepath.Join(s.dir, id)
	walPath := filepath.Join(gdir, walFile)
	tmp, err := s.writeTemp(walPath, writeBytes(walData))
	if err != nil {
		return fail(fmt.Errorf("write wal: %w", err))
	}
	if err := s.renameLive(id, r, tmp, walPath, ""); err != nil {
		return fail(fmt.Errorf("write wal: %w", err))
	}
	s.syncDir(gdir)
	newWal, err := s.fs.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("reopen wal: %w", err))
	}
	// Swap in-memory state. The old appended array stays untouched so
	// Delta slices handed out before the compaction remain valid, and
	// the old mapping (if any) is only unmapped once every view pinned
	// on it has released — the store reference moves under s.mu below.
	oldHandle := r.mapped
	r.snap, r.mapped = newSnap, newHandle
	r.snapVer = target
	r.appended = append([]graph.Edge(nil), r.appended[targetOff:]...)
	r.batches = kept
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, live := s.wals[id]
	if !live || s.t.recs[id] != r {
		// Evicted after the WAL rename: the eviction already closed the
		// WAL and released the old store reference; the fresh handles
		// are orphans.
		newWal.Close()
		if newHandle != nil {
			newHandle.release()
		}
		return nil
	}
	s.wals[id] = &walState{f: newWal, size: int64(len(walData))}
	ws.f.Close()
	if oldHandle != nil {
		oldHandle.release() // the store reference moves off the old mapping
	}
	if newHandle != nil {
		s.maps[id] = newHandle
	} else {
		delete(s.maps, id)
	}
	return nil
}

// writeCompactedSnapshot is compact's unlocked step: it writes base ∪
// prefix at sm.Ver as the graph's new snapshot, in the format its edge
// count calls for, and returns the new in-memory base — a resident
// graph or a mapping of the file just written. The rename goes through
// renameLive, which also removes the old format's file when the base's
// format (baseMapped) differs from the one this snapshot is written in.
func (s *Disk) writeCompactedSnapshot(id string, r *record, sm snapMeta, base graph.View, baseMapped bool, prefix []graph.Edge) (*graph.Graph, *mappedHandle, error) {
	gdir := filepath.Join(s.dir, id)
	target := sm.Ver
	if s.mappedFor(target.M) {
		// Out-of-core target: stream base ∪ pre-window batches straight
		// into a new WCCM1 file — the compaction never materializes the
		// graph, so folding a snapshot larger than RAM stays O(n+delta).
		metaRaw, err := json.Marshal(sm)
		if err != nil {
			return nil, nil, fmt.Errorf("encode snapshot meta: %w", err)
		}
		mpath := filepath.Join(gdir, mapFile)
		tmp, err := s.writeTemp(mpath, func(w io.Writer) error {
			return graph.WriteMappedView(w, base, target.N, prefix, metaRaw)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("write snapshot: %w", err)
		}
		stale := ""
		if !baseMapped {
			// This compaction switched formats; the binary snapshot is
			// stale (open would prefer the higher-versioned map anyway).
			stale = filepath.Join(gdir, snapFile)
		}
		if err := s.renameLive(id, r, tmp, mpath, stale); err != nil {
			return nil, nil, fmt.Errorf("write snapshot: %w", err)
		}
		h, err := s.openMapped(mpath)
		if err != nil {
			return nil, nil, fmt.Errorf("map snapshot: %w", err)
		}
		return nil, h, nil
	}
	g := buildVersion(base, target.N, target.M, prefix)
	snap, err := encodeSnapshot(sm, g)
	if err != nil {
		return nil, nil, fmt.Errorf("encode snapshot: %w", err)
	}
	spath := filepath.Join(gdir, snapFile)
	tmp, err := s.writeTemp(spath, writeBytes(snap))
	if err != nil {
		return nil, nil, fmt.Errorf("write snapshot: %w", err)
	}
	stale := ""
	if baseMapped {
		// Format switch in the shrinking direction (threshold raised
		// across a restart); the mapped snapshot is stale.
		stale = filepath.Join(gdir, mapFile)
	}
	if err := s.renameLive(id, r, tmp, spath, stale); err != nil {
		return nil, nil, fmt.Errorf("write snapshot: %w", err)
	}
	return g, nil, nil
}

func (s *Disk) Versions(id string) ([]Version, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window(s.cfg.RetainVersions), nil
}

func (s *Disk) Delta(id string, from, to int) ([]graph.Edge, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltaLocked(from, to, s.cfg.RetainVersions)
}

func (s *Disk) Tail(id string, from int) ([]BatchRecord, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(from, s.cfg.RetainVersions)
}

func (s *Disk) Materialize(id string, version int) (*graph.Graph, error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.materializeLocked(version, s.cfg.RetainVersions)
}

func (s *Disk) View(id string, version int) (graph.View, func(), error) {
	r, err := s.rec(id)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked(version, s.cfg.RetainVersions)
}

func (s *Disk) Evict(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.t.recs[id]
	if !ok {
		return false
	}
	s.evictLocked(id)
	return true
}

// evictLocked removes the record, closes its WAL, releases the store's
// reference on its mapping (in-flight views keep theirs; the pages
// unmap at the last release), and deletes its directory — unlinking a
// still-mapped file is safe, the mapping holds the pages. Callers hold
// s.mu.
func (s *Disk) evictLocked(id string) {
	s.t.remove(id)
	if ws, ok := s.wals[id]; ok {
		ws.f.Close()
		delete(s.wals, id)
	}
	if h, ok := s.maps[id]; ok {
		h.release()
		delete(s.maps, id)
	}
	s.fs.RemoveAll(filepath.Join(s.dir, id))
}

// Probe checks whether the backing filesystem accepts durable writes
// again: create, write, fsync, and remove a scratch file under the data
// directory through the same seam every real write uses. The service's
// degraded mode calls it to decide when a store that reported
// persistent write failure is safe to reopen for mutations.
func (s *Disk) Probe() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("store: closed")
	}
	path := filepath.Join(s.dir, probeFile)
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: probe create: %w", err)
	}
	if _, err := f.Write([]byte("ok\n")); err != nil {
		f.Close()
		s.fs.Remove(path)
		return fmt.Errorf("store: probe write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(path)
		return fmt.Errorf("store: probe fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(path)
		return fmt.Errorf("store: probe close: %w", err)
	}
	s.fs.Remove(path)
	return nil
}

// Close stops the compaction worker and closes every WAL handle. All
// acknowledged appends are already fsync'd, so Close loses nothing.
func (s *Disk) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for id, ws := range s.wals {
		if err := ws.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.wals, id)
	}
	for id, h := range s.maps {
		h.release()
		delete(s.maps, id)
	}
	return firstErr
}
