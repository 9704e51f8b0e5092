package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key content-addresses a checkpoint by hashing the canonical JSON of v
// (the caller passes everything that determines the warm state: format
// version, workload parameters, and the full simulator configuration).
// encoding/json renders struct fields in declaration order and sorts map
// keys, so the hash is stable across processes.
func Key(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ckptSuffix names checkpoint files: <key>.ckpt holds Encode's bytes.
// gzipSuffix names the gzip+JSON files of format versions before 4: they
// no longer load, but GC still counts and sweeps them so an old store
// stays bounded.
const (
	ckptSuffix = ".ckpt"
	gzipSuffix = ".ckpt.gz"
)

// path places key's checkpoint inside dir.
func path(dir, key string) string {
	return filepath.Join(dir, key+ckptSuffix)
}

// save writes st under key in dir, creating the directory as needed, and
// returns the encoded size. The write goes through a temp file and an
// atomic rename so concurrent processes warming the same cell never
// observe a partial checkpoint — last writer wins with identical bytes.
func save(dir, key string, st *State) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path(dir, key)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	return int64(buf.Len()), nil
}

// DefaultCacheBytes is Dir's default in-memory cache budget, in decoded
// bytes (Footprint). A warmed default-machine core decodes to ~1.7 MiB,
// so the default keeps ~150 warm states resident — more tuples than one
// grid of the paper's figures touches (Fig 10 has 112).
const DefaultCacheBytes = 256 << 20

// Dir is a content-addressed warm-state store: the on-disk checkpoint
// directory fronted by a size-bounded in-memory cache of decoded states.
// The first in-process fork of a tuple pays one disk read + decode; every
// later fork gets the already-decoded *State back directly. Cached states
// are shared across callers, which is safe because restore code treats a
// State as read-only (the same contract that lets one snapshot fork
// concurrently). Each cached state is charged its decoded footprint, so
// the budget bounds the memory the cache actually holds.
//
// A Dir with an empty path is memory-only: it never reads, writes,
// touches or collects files, and Load finds only what Save or Put put in
// memory.
//
// All methods are safe for concurrent use; concurrent Loads of the same
// key are singleflighted so a cold tuple is read and decoded once, not
// once per caller.
type Dir struct {
	path       string
	cacheBytes int64

	mu       sync.Mutex
	entries  map[string]*dirEntry
	lru      dirList // most-recent first; evictions pop the tail
	cost     int64
	inflight map[string]*dirLoad
	stats    DirStats
}

// dirEntry is one cached decoded state on the Dir's LRU list.
type dirEntry struct {
	key        string
	st         *State
	cost       int64
	prev, next *dirEntry
}

// dirList is an intrusive doubly-linked LRU list. A hand-rolled list
// (rather than scanning the entry map for the oldest tick) keeps
// eviction O(1) and keeps map iteration out of the package entirely.
type dirList struct {
	head, tail *dirEntry
}

func (l *dirList) pushFront(e *dirEntry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *dirList) remove(e *dirEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *dirList) moveFront(e *dirEntry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// dirLoad is one in-flight disk load, singleflighted per key.
type dirLoad struct {
	done chan struct{}
	st   *State
	err  error
}

// DirStats counts the store's traffic since construction.
type DirStats struct {
	// CacheHits counts Loads and Gets served decoded from memory
	// (including singleflight waiters that blocked on a leader's disk
	// load).
	CacheHits uint64
	// DiskHits counts Loads that found and decoded an on-disk checkpoint.
	DiskHits uint64
	// Misses counts Loads that found nothing (the caller re-warms).
	Misses uint64
	// Stores counts Saves.
	Stores uint64
	// Evictions counts in-memory cache entries dropped to fit the budget.
	Evictions uint64
}

// NewDir opens the checkpoint directory at path with an in-memory cache
// budget of cacheBytes decoded bytes. cacheBytes == 0 selects
// DefaultCacheBytes; cacheBytes < 0 disables the in-memory cache (every
// Load decodes from disk). The directory is created lazily on first Save;
// an empty path makes the store memory-only.
func NewDir(path string, cacheBytes int64) *Dir {
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Dir{
		path:       path,
		cacheBytes: cacheBytes,
		entries:    make(map[string]*dirEntry),
		inflight:   make(map[string]*dirLoad),
	}
}

// Path returns the directory this store fronts.
func (d *Dir) Path() string { return d.path }

// Stats returns a snapshot of the store's traffic counters.
func (d *Dir) Stats() DirStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Load returns the state stored under key, preferring the in-memory
// cache. cached reports a memory hit — the caller skipped both disk and
// decode. A miss is (nil, false, nil); errors (corrupt or truncated
// files, version mismatches) are also misses, surfaced for transparency
// but safe to ignore: the caller re-warms and the next Save overwrites
// the bad file.
func (d *Dir) Load(key string) (st *State, cached bool, err error) {
	d.mu.Lock()
	if e, ok := d.entries[key]; ok {
		d.lru.moveFront(e)
		d.stats.CacheHits++
		d.mu.Unlock()
		d.touch(key)
		return e.st, true, nil
	}
	if c, ok := d.inflight[key]; ok {
		d.mu.Unlock()
		<-c.done
		d.mu.Lock()
		if c.st != nil {
			d.stats.CacheHits++
		} else {
			d.stats.Misses++
		}
		d.mu.Unlock()
		return c.st, c.st != nil, c.err
	}
	c := &dirLoad{done: make(chan struct{})}
	d.inflight[key] = c
	d.mu.Unlock()

	c.st, c.err = d.loadDisk(key)
	cost := d.charge(c.st)

	d.mu.Lock()
	delete(d.inflight, key)
	if c.st != nil {
		d.stats.DiskHits++
		d.insertLocked(key, c.st, cost)
	} else {
		d.stats.Misses++
	}
	d.mu.Unlock()
	close(c.done)
	return c.st, false, c.err
}

// loadDisk reads and decodes key's file; a memory-only Dir has none.
func (d *Dir) loadDisk(key string) (*State, error) {
	if d.path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path(d.path, key))
	if err != nil {
		return nil, nil // not stored: a plain miss, not an error
	}
	st, err := DecodeBytes(b)
	if err != nil {
		return nil, err
	}
	d.touch(key)
	return st, nil
}

// Get returns the state cached in memory under key, or nil. Unlike Load
// it never reads or touches the disk; a hit counts as a cache hit and
// refreshes the entry's recency.
func (d *Dir) Get(key string) *State {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[key]
	if !ok {
		return nil
	}
	d.lru.moveFront(e)
	d.stats.CacheHits++
	return e.st
}

// Save writes st under key (atomic temp-file + rename, see save) and
// installs the decoded state in the in-memory cache, so the tuple that
// was just warmed forks from memory from the start. A memory-only Dir
// only installs it.
func (d *Dir) Save(key string, st *State) error {
	if d.path != "" {
		if _, err := save(d.path, key, st); err != nil {
			return err
		}
	}
	cost := d.charge(st)
	d.mu.Lock()
	d.stats.Stores++
	d.insertLocked(key, st, cost)
	d.mu.Unlock()
	return nil
}

// Put installs st under key in the in-memory cache only: for warm states
// whose key does not address their content (trace-driven runs), and for
// states whose Save failed, which stay servable in this process.
func (d *Dir) Put(key string, st *State) {
	cost := d.charge(st)
	d.mu.Lock()
	d.insertLocked(key, st, cost)
	d.mu.Unlock()
}

// Resident returns how many decoded states the in-memory cache holds and
// their summed footprint.
func (d *Dir) Resident() (states int, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries), d.cost
}

// charge is st's cost against the cache budget: its decoded footprint,
// computed once per insertion (0 when nothing will be cached).
func (d *Dir) charge(st *State) int64 {
	if st == nil || d.cacheBytes < 0 {
		return 0
	}
	return Footprint(st)
}

// insertLocked installs (key, st) with the given cost and evicts from the
// LRU tail until the cache fits its budget. The entry just inserted is
// never evicted, so one state larger than the whole budget still serves
// its own forks. Caller holds d.mu.
func (d *Dir) insertLocked(key string, st *State, cost int64) {
	if d.cacheBytes < 0 {
		return
	}
	if old, ok := d.entries[key]; ok {
		d.lru.remove(old)
		d.cost -= old.cost
		delete(d.entries, key)
	}
	e := &dirEntry{key: key, st: st, cost: cost}
	d.entries[key] = e
	d.lru.pushFront(e)
	d.cost += cost
	for d.cost > d.cacheBytes && d.lru.tail != nil && d.lru.tail != e {
		victim := d.lru.tail
		d.lru.remove(victim)
		delete(d.entries, victim.key)
		d.cost -= victim.cost
		d.stats.Evictions++
	}
}

// touch bumps key's file mtime so GC's least-recently-used order follows
// actual use, not just write time. Best-effort: a failed touch (file
// GC'd by another process) costs nothing.
func (d *Dir) touch(key string) {
	if d.path == "" {
		return
	}
	//lint:ignore determinism host-side cache-recency metadata for GC eviction order; never observable by simulation state
	now := time.Now()
	_ = os.Chtimes(path(d.path, key), now, now)
}

// GC bounds the on-disk store: when the checkpoint files under the
// directory (.ckpt, plus unreadable .ckpt.gz files left by old format
// versions) total more than maxBytes, the least-recently-used files
// (oldest mtime — Load touches files it serves) are removed until the
// rest fit. It returns how many files were removed and how many bytes
// they freed. The in-memory cache is left intact: decoded states stay
// servable in-process even when their backing file is collected.
func (d *Dir) GC(maxBytes int64) (removed int, freed int64, err error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil // nothing stored yet
		}
		return 0, 0, fmt.Errorf("checkpoint: gc: %w", err)
	}
	type file struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	for _, en := range ents {
		name := en.Name()
		if !strings.HasSuffix(name, ckptSuffix) && !strings.HasSuffix(name, gzipSuffix) {
			continue // foreign files and in-flight temps are not ours to delete
		}
		info, err := en.Info()
		if err != nil {
			continue // raced with a concurrent GC/rename
		}
		files = append(files, file{name: name, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name // stable order for equal mtimes
	})
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(d.path, f.name)); err != nil {
			continue // raced with a concurrent GC; its removal still counts toward its own total
		}
		total -= f.size
		removed++
		freed += f.size
	}
	return removed, freed, nil
}
