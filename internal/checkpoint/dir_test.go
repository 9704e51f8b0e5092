package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestDirLoadSaveCache covers the store's fast path: a miss before any
// Save, a Save that installs the decoded state, and a Load served from
// memory — returning the very same *State, not a re-decode.
func TestDirLoadSaveCache(t *testing.T) {
	dir := t.TempDir()
	d := NewDir(dir, 0)
	st := sampleState()

	if got, cached, err := d.Load("k1"); got != nil || cached || err != nil {
		t.Fatalf("load before save = (%v, %v, %v), want (nil, false, nil)", got, cached, err)
	}
	if err := d.Save("k1", st); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "k1"+ckptSuffix)); err != nil {
		t.Fatalf("save left no %s file: %v", ckptSuffix, err)
	}
	got, cached, err := d.Load("k1")
	if err != nil || !cached {
		t.Fatalf("load after save = (cached=%v, err=%v), want a memory hit", cached, err)
	}
	if got != st {
		t.Error("memory hit returned a different *State than the one saved (re-decoded instead of cached)")
	}
	s := d.Stats()
	want := DirStats{CacheHits: 1, Misses: 1, Stores: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}

	// A fresh Dir over the same directory models the next process: first
	// Load pays the disk decode, the second is a memory hit.
	d2 := NewDir(dir, 0)
	got2, cached2, err := d2.Load("k1")
	if err != nil || cached2 {
		t.Fatalf("cold load = (cached=%v, err=%v), want a disk hit", cached2, err)
	}
	if !reflect.DeepEqual(st, got2) {
		t.Error("disk round trip through Dir is lossy")
	}
	if _, cached3, _ := d2.Load("k1"); !cached3 {
		t.Error("second load of a disk-hit key was not served from memory")
	}
	if s := d2.Stats(); s.DiskHits != 1 || s.CacheHits != 1 {
		t.Errorf("cold-dir stats = %+v, want 1 disk hit + 1 cache hit", s)
	}
}

// TestDirCacheDisabled pins the cacheBytes < 0 contract: every Load
// decodes from disk, nothing is retained.
func TestDirCacheDisabled(t *testing.T) {
	d := NewDir(t.TempDir(), -1)
	if err := d.Save("k", sampleState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, cached, err := d.Load("k")
		if err != nil || st == nil || cached {
			t.Fatalf("load %d = (%v, cached=%v, err=%v), want an uncached disk hit", i, st, cached, err)
		}
	}
	if s := d.Stats(); s.DiskHits != 2 || s.CacheHits != 0 {
		t.Errorf("stats = %+v, want 2 disk hits and no cache hits", s)
	}
}

// TestDirEviction bounds the cache to less than two entries' cost and
// checks LRU order: inserting a second state evicts the first (never the
// entry just inserted), and the evicted key falls back to disk.
func TestDirEviction(t *testing.T) {
	dir := t.TempDir()
	cost := Footprint(sampleState()) // an entry's charge: its decoded footprint

	d := NewDir(dir, cost+cost/2) // room for one entry, not two
	if err := d.Save("a", sampleState()); err != nil {
		t.Fatal(err)
	}
	if err := d.Save("b", sampleState()); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Evictions != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction", s)
	}
	if _, cached, _ := d.Load("b"); !cached {
		t.Error("most recent entry was evicted instead of the LRU one")
	}
	if st, cached, err := d.Load("a"); st == nil || cached || err != nil {
		t.Errorf("evicted key load = (%v, cached=%v, err=%v), want an uncached disk hit", st, cached, err)
	}
}

// TestDirSingleflight hammers one cold key from many goroutines: the
// disk decode must happen exactly once, with every caller getting the
// same decoded state back.
func TestDirSingleflight(t *testing.T) {
	dir := t.TempDir()
	if _, err := save(dir, "k", sampleState()); err != nil { // bare save: nothing cached yet
		t.Fatal(err)
	}
	d := NewDir(dir, 0)
	const callers = 16
	states := make([]*State, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := d.Load("k")
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			states[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range states {
		if st == nil {
			t.Fatalf("caller %d got no state", i)
		}
		if st != states[0] {
			t.Fatalf("caller %d decoded a private copy — singleflight did not share", i)
		}
	}
	if s := d.Stats(); s.DiskHits != 1 || s.CacheHits != callers-1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 disk hit and %d cache hits", s, callers-1)
	}
}

// TestDirCorruptFile pins the corrupt-file contract: Load surfaces the
// decode error but counts a miss, so the caller re-warms and overwrites.
func TestDirCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+ckptSuffix), []byte("PDCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewDir(dir, 0)
	st, cached, err := d.Load("bad")
	if st != nil || cached || err == nil {
		t.Fatalf("corrupt load = (%v, cached=%v, err=%v), want (nil, false, error)", st, cached, err)
	}
	if s := d.Stats(); s.Misses != 1 {
		t.Errorf("stats = %+v, want the corrupt load counted as a miss", s)
	}
}

// TestDirGC fills a directory past a byte budget with files of staggered
// mtimes and requires the oldest to go first, foreign files to survive,
// and a no-op when already under budget.
func TestDirGC(t *testing.T) {
	dir := t.TempDir()
	d := NewDir(dir, 0)
	keys := []string{"k0", "k1", "k2", "k3"}
	var sizes []int64
	base := time.Unix(1_700_000_000, 0)
	for i, k := range keys {
		if err := d.Save(k, sampleState()); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, k+ckptSuffix)
		// Pin mtimes explicitly so the LRU order under test is exact, not
		// a race against file-system timestamp granularity.
		mt := base.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A gzip+JSON file from a format version before 4, older than every
	// checkpoint: Load misses it, but GC counts and sweeps it first.
	const gzipSize = 4096
	gz := filepath.Join(dir, "old"+gzipSuffix)
	if err := os.WriteFile(gz, make([]byte, gzipSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(gz, base.Add(-time.Hour), base.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got, _, err := d.Load("old"); got != nil || err != nil {
		t.Fatalf("Load of a .ckpt.gz-only key = (%v, %v), want a plain miss", got, err)
	}

	total := int64(gzipSize)
	for _, s := range sizes {
		total += s
	}
	if n, freed, err := d.GC(total); n != 0 || freed != 0 || err != nil {
		t.Fatalf("GC under budget = (%d, %d, %v), want a no-op", n, freed, err)
	}

	// Budget for the two newest files: the three oldest must be removed.
	budget := sizes[2] + sizes[3]
	n, freed, err := d.GC(budget)
	if err != nil {
		t.Fatal(err)
	}
	if want := gzipSize + sizes[0] + sizes[1]; n != 3 || freed != want {
		t.Errorf("GC removed %d files (%d bytes), want 3 oldest (%d bytes)", n, freed, want)
	}
	if _, err := os.Stat(gz); !os.IsNotExist(err) {
		t.Errorf("GC kept the stale .ckpt.gz file: %v", err)
	}
	for i, k := range keys {
		_, err := os.Stat(filepath.Join(dir, k+ckptSuffix))
		if gone := os.IsNotExist(err); gone != (i < 2) {
			t.Errorf("after GC, %s exists=%v — oldest-first order violated", k, !gone)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("GC removed a non-checkpoint file: %v", err)
	}

	// The in-memory cache still serves a key whose file was collected.
	if _, cached, _ := d.Load("k0"); !cached {
		t.Error("GC invalidated the in-memory cache entry for a collected file")
	}

	// A directory that was never created is an empty store, not an error.
	if n, freed, err := NewDir(filepath.Join(dir, "never-created"), 0).GC(1); n != 0 || freed != 0 || err != nil {
		t.Errorf("GC on a missing directory = (%d, %d, %v), want (0, 0, nil)", n, freed, err)
	}
}

// TestDirMemoryOnly pins the empty-path contract: Save, Put and Load work
// in memory, a key nobody stored is a plain miss, GC has nothing to
// collect, and no checkpoint file appears anywhere relative to the
// working directory.
func TestDirMemoryOnly(t *testing.T) {
	d := NewDir("", 0)
	st, other := sampleState(), sampleState()
	if err := d.Save("mem-only-a", st); err != nil {
		t.Fatal(err)
	}
	d.Put("mem-only-b", other)
	if got, cached, err := d.Load("mem-only-a"); got != st || !cached || err != nil {
		t.Errorf("load after save = (%p, cached=%v, err=%v), want the saved state from memory", got, cached, err)
	}
	if got := d.Get("mem-only-b"); got != other {
		t.Errorf("get after put = %p, want the put state", got)
	}
	if got, cached, err := d.Load("mem-only-c"); got != nil || cached || err != nil {
		t.Errorf("load of an unknown key = (%v, cached=%v, err=%v), want a plain miss", got, cached, err)
	}
	if n, freed, err := d.GC(0); n != 0 || freed != 0 || err != nil {
		t.Errorf("GC = (%d, %d, %v), want a no-op", n, freed, err)
	}
	for _, k := range []string{"mem-only-a", "mem-only-b", "mem-only-c"} {
		if _, err := os.Stat(k + ckptSuffix); !os.IsNotExist(err) {
			t.Errorf("a memory-only Dir left %s on disk (%v)", k+ckptSuffix, err)
		}
	}
	if n, bytes := d.Resident(); n != 2 || bytes != 2*Footprint(st) {
		t.Errorf("resident = (%d states, %d bytes), want 2 states of %d bytes", n, bytes, Footprint(st))
	}
	if s := d.Stats(); s.Stores != 1 || s.CacheHits != 2 || s.Misses != 1 || s.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 store, 2 cache hits, 1 miss", s)
	}
}

// TestFootprint checks the decoded-footprint walk against hand counts:
// a flat column adds its capacity times its element size, a pointee adds
// its own size, and a decoded copy is charged at least its wire size and
// about what the original is.
func TestFootprint(t *testing.T) {
	st := sampleState()
	base := Footprint(st)
	if base <= int64(unsafe.Sizeof(State{})) {
		t.Fatalf("footprint %d counts nothing beyond the State struct", base)
	}
	l2 := &st.Uncore.L2
	l2.Tag = append(make([]uint64, 0, len(l2.Tag)+1000), l2.Tag...)
	if got, want := Footprint(st)-base, int64(1000*8); got != want {
		t.Errorf("1000 more uint64s of tag capacity added %d bytes, want %d", got, want)
	}
	l2.Tag = l2.Tag[:len(l2.Tag):len(l2.Tag)]
	st.Tenants[0].IFU = nil
	noIFU := Footprint(st)
	st.Tenants[0].IFU = &FTQEntryState{}
	if got, want := Footprint(st)-noIFU, int64(unsafe.Sizeof(FTQEntryState{})); got != want {
		t.Errorf("an empty IFU entry added %d bytes, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The decoder's slices may carry size-class slack the original lacks.
	if got, orig := Footprint(dec), Footprint(st); got > orig+orig/4 || got < int64(buf.Len()) {
		t.Errorf("decoded footprint %d, want at least the encoded %d bytes and near the original's %d", got, buf.Len(), orig)
	}
}
