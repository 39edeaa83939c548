package store

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// renameCountFS is the real filesystem with a counter on snapshot
// renames — one per completed compaction (Put writes its snapshot
// before the count is read, so tests take deltas).
type renameCountFS struct {
	fault.FS
	snapRenames atomic.Int64
}

func (c *renameCountFS) Rename(oldpath, newpath string) error {
	if err := c.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	if base := filepath.Base(newpath); base == snapFile || base == mapFile {
		c.snapRenames.Add(1)
	}
	return nil
}

// diskRecord returns the live record for id.
func diskRecord(t *testing.T, s *Disk, id string) *record {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.t.recs[id]
	if !ok {
		t.Fatalf("graph %s not stored", id)
	}
	return r
}

// walBatches returns how many batches sit on top of the record's
// snapshot, and whether a compaction is in flight or due.
func walBatches(s *Disk, r *record) (n int, busy bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches), r.compacting || s.needsCompaction(r)
}

// TestCompactionStaleRequestsAreNoops drives the background compactor
// and, after every append has settled, replays the two kinds of stale
// request the store can see: a duplicate id queued on the compaction
// channel and a direct compaction call (what the pass in Open or a
// concurrent SyncCompaction appender issues). Each must re-check the
// amortized trigger and do nothing, so N appends rewrite the snapshot
// exactly ⌊(N−R+1)/R⌋ times: the first compaction lands at 2R−1
// batches, each later one R appends after the previous.
func TestCompactionStaleRequestsAreNoops(t *testing.T) {
	const retain, appends = 3, 20
	want := int64((appends - retain + 1) / retain)
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			fs := &renameCountFS{FS: fault.OS{}}
			cfg := Config{RetainVersions: retain, FS: fs}
			if mapped {
				cfg.MappedThreshold = 1
			}
			s := openDisk(t, t.TempDir(), cfg)
			m := putGraph(t, s, 12)
			r := diskRecord(t, s, m.ID)
			before := fs.snapRenames.Load()
			settle := func() {
				deadline := time.Now().Add(10 * time.Second)
				for {
					n, busy := walBatches(s, r)
					if !busy && len(s.compactCh) == 0 {
						if n > 2*retain-2 {
							t.Fatalf("%d batches on the snapshot after settling, bound %d", n, 2*retain-2)
						}
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("background compaction never settled")
					}
					time.Sleep(time.Millisecond)
				}
			}
			for i := 0; i < appends; i++ {
				appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i % 12), V: graph.Vertex((i*5 + 3) % 12)}})
				settle()
				s.compactCh <- m.ID
				if err := s.compact(m.ID); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fs.snapRenames.Load() - before; got != want {
				t.Fatalf("%d snapshot rewrites over %d appends with R=%d, want %d", got, appends, retain, want)
			}
		})
	}
}

// TestCompactionBoundsWAL: under the amortized trigger the WAL stays
// bounded while the retained window is exactly the memory backend's.
// After every synchronous append at most 2R−2 batches sit on top of the
// snapshot; Versions matches the memory store entry for entry; tailing
// from below the window is ErrNotFound; and a reopen serves identical
// versions and byte-identical materializations.
func TestCompactionBoundsWAL(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for _, retain := range []int{2, 3, 65} {
		for _, mapped := range []bool{false, true} {
			appends := 2*retain + rng.IntN(2*retain)
			t.Run(fmt.Sprintf("R=%d/mapped=%v/appends=%d", retain, mapped, appends), func(t *testing.T) {
				const n = 16
				cfg := Config{RetainVersions: retain, SyncCompaction: true}
				if mapped {
					cfg.MappedThreshold = 1
				}
				dir := t.TempDir()
				s := openDisk(t, dir, cfg)
				mem := NewMemory(Config{RetainVersions: retain})
				m := putGraph(t, s, n)
				putGraph(t, mem, n)
				r := diskRecord(t, s, m.ID)
				for i := 0; i < appends; i++ {
					batch := make([]graph.Edge, 1+rng.IntN(3))
					for j := range batch {
						batch[j] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
					}
					v := appendBatch(t, mem, m.ID, batch)
					if err := s.Append(m.ID, batch, v); err != nil {
						t.Fatal(err)
					}
					if got, _ := walBatches(s, r); got > 2*retain-2 {
						t.Fatalf("append %d: %d batches on the snapshot, bound 2R-2 = %d", i+1, got, 2*retain-2)
					}
					assertSameWindow(t, s, mem, m.ID)
				}
				vers, err := s.Versions(m.ID)
				if err != nil {
					t.Fatal(err)
				}
				if oldest := vers[0].Version; oldest > 0 {
					if _, err := s.Tail(m.ID, oldest-1); !errors.Is(err, ErrNotFound) {
						t.Fatalf("Tail(%d) below the window %d..: err %v, want ErrNotFound", oldest-1, oldest, err)
					}
				}
				want := encodeVersions(t, s, m.ID, vers)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s2 := openDisk(t, dir, cfg)
				defer s2.Close()
				assertSameWindow(t, s2, mem, m.ID)
				got := encodeVersions(t, s2, m.ID, vers)
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("version %d materializes differently after reopen", vers[i].Version)
					}
				}
			})
		}
	}
}

// assertSameWindow checks a's retained window equals b's entry for entry.
func assertSameWindow(t *testing.T, a, b Store, id string) {
	t.Helper()
	got, err := a.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("window holds %d versions, memory backend %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window[%d] = %+v, memory backend %+v", i, got[i], want[i])
		}
	}
}

// encodeVersions materializes every listed version and returns its
// binary CSR encoding.
func encodeVersions(t *testing.T, s Store, id string, vers []Version) [][]byte {
	t.Helper()
	out := make([][]byte, len(vers))
	for i, v := range vers {
		g, err := s.Materialize(id, v.Version)
		if err != nil {
			t.Fatalf("materialize %d: %v", v.Version, err)
		}
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestCompactionRacesReaders runs appends against readers — Materialize,
// View scans and Tail — while background compactions rewrite the
// snapshot with the record lock released. Every read must either
// succeed with the shape its version metadata promises or fail with
// ErrNotFound (the version left the window between listing and
// reading); the store must end compacted and reopen to the same tip.
// Meant for the race detector (make chaos-smoke runs it with -race).
func TestCompactionRacesReaders(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			const n, retain, appends = 4000, 4, 40
			cfg := Config{RetainVersions: retain}
			if mapped {
				cfg.MappedThreshold = 1
			}
			dir := t.TempDir()
			s := openDisk(t, dir, cfg)
			m := putGraph(t, s, n)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var reads atomic.Int64
			errc := make(chan error, 3)
			reader := func(read func(vers []Version) error) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					vers, err := s.Versions(m.ID)
					if err == nil {
						err = read(vers)
					}
					if err != nil && !errors.Is(err, ErrNotFound) {
						errc <- err
						return
					}
					reads.Add(1)
				}
			}
			wg.Add(3)
			go reader(func(vers []Version) error {
				v := vers[len(vers)-1]
				g, err := s.Materialize(m.ID, v.Version)
				if err == nil && (g.N() != v.N || g.M() != v.M) {
					err = fmt.Errorf("materialize %d: n=%d m=%d, want n=%d m=%d", v.Version, g.N(), g.M(), v.N, v.M)
				}
				return err
			})
			go reader(func(vers []Version) error {
				v := vers[0]
				view, release, err := s.View(m.ID, v.Version)
				if err != nil {
					return err
				}
				defer release()
				half := 0
				for u := 0; u < view.NumVertices(); u++ {
					half += view.Degree(graph.Vertex(u))
				}
				if half != 2*v.M {
					return fmt.Errorf("view %d: %d half-edges, want %d", v.Version, half, 2*v.M)
				}
				return nil
			})
			go reader(func(vers []Version) error {
				from := vers[0].Version
				recs, err := s.Tail(m.ID, from)
				if err != nil {
					return err
				}
				for i, rec := range recs {
					if rec.Info.Version != from+1+i || len(rec.Edges) != rec.Info.Appended {
						return fmt.Errorf("tail from %d: record %d is version %d with %d edges", from, i, rec.Info.Version, len(rec.Edges))
					}
				}
				return nil
			})
			for i := 0; i < appends; i++ {
				appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i * 97 % n), V: graph.Vertex((i*389 + 1) % n)}})
			}
			close(stop)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			vers, err := s.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			tip := vers[len(vers)-1]
			want := encodeVersions(t, s, m.ID, []Version{tip})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if reads.Load() == 0 {
				t.Fatal("readers never completed a read")
			}
			s2 := openDisk(t, dir, cfg)
			defer s2.Close()
			if r := diskRecord(t, s2, m.ID); r.snapVer.Version == 0 {
				t.Fatal("no compaction ever rebased the snapshot")
			}
			if got := encodeVersions(t, s2, m.ID, []Version{tip}); !bytes.Equal(got[0], want[0]) {
				t.Fatalf("tip %d materializes differently after reopen", tip.Version)
			}
		})
	}
}

// gatedFS, once armed, holds the fsync of every snapshot temp file
// until release is closed, signalling entered first — a compaction
// frozen in the middle of its snapshot write.
type gatedFS struct {
	fault.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedFS) OpenFile(path string, flag int, perm iofs.FileMode) (fault.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if base := filepath.Base(path); base == snapFile+".tmp" || base == mapFile+".tmp" {
		return &gatedFile{File: f, fs: g}, nil
	}
	return f, nil
}

type gatedFile struct {
	fault.File
	fs *gatedFS
}

func (f *gatedFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestCompactionDoesNotBlockAppends freezes a background compaction
// inside its snapshot write and checks the graph stays usable: appends
// are acknowledged and the oldest retained version still materializes.
// Once released, the compaction's WAL rewrite must carry the batches
// appended meanwhile, so a reopen serves the whole retained lineage.
func TestCompactionDoesNotBlockAppends(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			const n, retain = 10, 3
			fs := &gatedFS{FS: fault.OS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
			cfg := Config{RetainVersions: retain, FS: fs}
			if mapped {
				cfg.MappedThreshold = 1
			}
			dir := t.TempDir()
			s := openDisk(t, dir, cfg)
			m := putGraph(t, s, n)
			fs.armed.Store(true)
			edge := func(i int) []graph.Edge { return []graph.Edge{{U: graph.Vertex(i % n), V: graph.Vertex((i + 4) % n)}} }
			for i := 0; i < 2*retain-1; i++ {
				appendBatch(t, s, m.ID, edge(i))
			}
			select {
			case <-fs.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("compaction never reached its snapshot fsync")
			}
			// The compaction is parked holding no lock: appends and reads
			// proceed past the trigger point.
			done := make(chan error, 1)
			go func() {
				for i := 2*retain - 1; i < 3*retain; i++ {
					vers, err := s.Versions(m.ID)
					if err != nil {
						done <- err
						return
					}
					prev, batch := vers[len(vers)-1], edge(i)
					v := Version{Version: prev.Version + 1, Digest: ChainDigest(prev.Digest, prev.N, batch), N: prev.N, M: prev.M + 1, Appended: 1}
					if err := s.Append(m.ID, batch, v); err != nil {
						done <- err
						return
					}
				}
				vers, err := s.Versions(m.ID)
				if err == nil {
					_, err = s.Materialize(m.ID, vers[0].Version)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("appends blocked behind the compaction's snapshot write")
			}
			want, err := s.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			fs.armed.Store(false)
			close(fs.release)
			r := diskRecord(t, s, m.ID)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				r.mu.Lock()
				rebased := r.snapVer.Version > 0
				r.mu.Unlock()
				if rebased {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("released compaction never finished")
				}
			}
			tip := encodeVersions(t, s, m.ID, want[len(want)-1:])
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openDisk(t, dir, cfg)
			defer s2.Close()
			got, err := s2.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reopened window %+v, want %+v", got, want)
			}
			if got := encodeVersions(t, s2, m.ID, want[len(want)-1:]); !bytes.Equal(got[0], tip[0]) {
				t.Fatal("tip materializes differently after reopen")
			}
		})
	}
}

// TestCompactionAbortsAfterEvictAndReput evicts a graph in the middle
// of a compaction and stores the same content again — same content
// address, same directory, fresh lineage — before the compaction's WAL
// rewrite runs. That rewrite must notice the record is no longer live:
// otherwise it replaces the new record's WAL with the old lineage's
// batches and the next open fails on a version gap. The test holds the
// old record's lock to keep the compaction between its snapshot rename
// and its WAL rewrite while the eviction and the re-Put happen.
func TestCompactionAbortsAfterEvictAndReput(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			const n, retain = 10, 3
			fs := &gatedFS{FS: fault.OS{}, entered: make(chan struct{}, 1), release: make(chan struct{})}
			cfg := Config{RetainVersions: retain, FS: fs}
			if mapped {
				cfg.MappedThreshold = 1
			}
			dir := t.TempDir()
			s := openDisk(t, dir, cfg)
			m := putGraph(t, s, n)
			old := diskRecord(t, s, m.ID)
			fs.armed.Store(true)
			for i := 0; i < 2*retain-1; i++ {
				appendBatch(t, s, m.ID, []graph.Edge{{U: graph.Vertex(i), V: graph.Vertex(i + 2)}})
			}
			select {
			case <-fs.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("compaction never reached its snapshot fsync")
			}
			fs.armed.Store(false)
			old.mu.Lock()
			close(fs.release)
			snap := filepath.Join(dir, m.ID, snapFile)
			if mapped {
				snap = filepath.Join(dir, m.ID, mapFile)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if raw := rawReadFile(t, snap); bytes.Contains(raw, []byte(`"version":3`)) {
					break // the compacted snapshot is in place
				}
				if time.Now().After(deadline) {
					old.mu.Unlock()
					t.Fatal("compaction never renamed its snapshot")
				}
			}
			if !s.Evict(m.ID) {
				old.mu.Unlock()
				t.Fatal("evict failed")
			}
			again := putGraph(t, s, n)
			old.mu.Unlock()
			if again.ID != m.ID {
				t.Fatalf("re-put stored %s, want the same content address %s", again.ID, m.ID)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				old.mu.Lock()
				busy := old.compacting
				old.mu.Unlock()
				if !busy {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("released compaction never finished")
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openDisk(t, dir, cfg)
			defer s2.Close()
			vers, err := s2.Versions(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(vers) != 1 || vers[0].Version != 0 || vers[0].Digest != m.Digest {
				t.Fatalf("re-stored graph reopened with lineage %+v, want only version 0", vers)
			}
		})
	}
}
