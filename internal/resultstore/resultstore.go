// Package resultstore is a content-addressed cache for deterministic
// simulation results. A key canonically hashes the full cell
// parameterization (mechanism, platform config, workload spec, thread
// count) plus a build stamp; because every cell is a pure function of
// that parameterization, a cached value is indistinguishable from a
// fresh run, and repeated cells — the DRAM baselines every normalized
// figure shares — are computed once per process.
//
// The store layers an in-memory LRU (bounded entry count) over an
// optional on-disk directory (gob-encoded, one file per key), and
// deduplicates concurrent computations of the same key: when several
// pool workers reach an identical cell at once, one executes and the
// rest wait for its value (single-flight).
package resultstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Key returns the canonical content address of a cell: the hex SHA-256
// of its parts joined with an unambiguous separator. Callers pass
// canonical renderings (e.g. fmt %#v of a config struct) plus a build
// stamp so that results never survive a code change on disk.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\x00%s\x00", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries  int    // values resident in memory
	Hits     uint64 // memory-layer hits
	DiskHits uint64 // disk-layer hits (misses in memory)
	Misses   uint64 // full misses: the cell was computed
	Evicted  uint64 // LRU evictions from the memory layer
}

// Store caches values of type V under content-address keys.
type Store[V any] struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*list.Element
	ll       *list.List // front = most recently used
	inflight map[string]*call[V]
	stats    Stats

	dir string // optional disk layer; "" = memory only
}

type lruEntry[V any] struct {
	key string
	val V
}

// call tracks one in-flight computation other callers can wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a memory-only store holding at most maxEntries values
// (maxEntries < 1 is treated as 1).
func New[V any](maxEntries int) *Store[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Store[V]{
		max:      maxEntries,
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
		inflight: make(map[string]*call[V]),
	}
}

// Open returns a store backed by dir: values are additionally
// gob-encoded to one file per key, so results persist across
// processes. The directory is created if needed.
func Open[V any](dir string, maxEntries int) (*Store[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := New[V](maxEntries)
	s.dir = dir
	return s, nil
}

// stampFile is the marker inside each stamped subdirectory recording
// the full build stamp its entries belong to.
const stampFile = "STAMP"

// stampDirName maps a build stamp to its subdirectory under the cache
// root. The "b-" prefix keeps stamped trees distinguishable from the
// two-hex-character key fan-out directories.
func stampDirName(stamp string) string {
	sum := sha256.Sum256([]byte(stamp))
	return "b-" + hex.EncodeToString(sum[:6])
}

// StampPath returns the subdirectory OpenStamped(dir, stamp, ...)
// reads and writes — the "hit path" of a given build.
func StampPath(dir, stamp string) string {
	return filepath.Join(dir, stampDirName(stamp))
}

// OpenStamped is Open rooted at dir/<hash-of-stamp>: each build writes
// its entries into its own subdirectory, marked by a STAMP file
// carrying the full stamp string, so tooling can attribute disk usage
// per build and garbage-collect stale builds wholesale (see ScanDir
// and GC).
func OpenStamped[V any](dir, stamp string, maxEntries int) (*Store[V], error) {
	sub := filepath.Join(dir, stampDirName(stamp))
	s, err := Open[V](sub, maxEntries)
	if err != nil {
		return nil, err
	}
	marker := filepath.Join(sub, stampFile)
	if _, err := os.Stat(marker); os.IsNotExist(err) {
		if err := os.WriteFile(marker, []byte(stamp+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	return s, nil
}

// StampStats summarizes one build's disk entries under a cache root.
type StampStats struct {
	// Dir is the subdirectory name ("" for legacy entries written by
	// pre-stamp layouts directly under the root).
	Dir string
	// Stamp is the full build stamp, or "(unstamped)" for legacy
	// entries.
	Stamp   string
	Entries int
	Bytes   int64
}

// legacyStamp labels pre-stamp-layout entries in ScanDir output.
const legacyStamp = "(unstamped)"

// countEntries walks root totalling finished (.gob) entries and their
// bytes, skipping stamp markers and temp files.
func countEntries(root string) (int, int64) {
	var entries int
	var bytes int64
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if filepath.Ext(path) == ".gob" {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes
}

// isHexFanout reports whether name is a two-hex-character key fan-out
// directory of the flat (legacy) layout.
func isHexFanout(name string) bool {
	if len(name) != 2 {
		return false
	}
	for _, c := range name {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// ScanDir inventories a cache root: one StampStats per stamped build
// subdirectory, plus one for any legacy unstamped entries directly
// under the root. Results are sorted by descending size.
func ScanDir(dir string) ([]StampStats, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var out []StampStats
	legacy := StampStats{Stamp: legacyStamp}
	for _, de := range des {
		name := de.Name()
		switch {
		case de.IsDir() && strings.HasPrefix(name, "b-"):
			st := StampStats{Dir: name, Stamp: legacyStamp}
			if b, err := os.ReadFile(filepath.Join(dir, name, stampFile)); err == nil {
				st.Stamp = strings.TrimSpace(string(b))
			}
			st.Entries, st.Bytes = countEntries(filepath.Join(dir, name))
			out = append(out, st)
		case de.IsDir() && isHexFanout(name):
			n, b := countEntries(filepath.Join(dir, name))
			legacy.Entries += n
			legacy.Bytes += b
		case !de.IsDir() && filepath.Ext(name) == ".gob":
			if info, err := de.Info(); err == nil {
				legacy.Entries++
				legacy.Bytes += info.Size()
			}
		}
	}
	if legacy.Entries > 0 {
		out = append(out, legacy)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out, nil
}

// GC removes every cache tree under dir that does not belong to
// keepStamp: stamped subdirectories with a different (or unreadable)
// stamp, and all legacy unstamped entries. It returns what was
// removed. Only paths the store itself lays out are touched — stamped
// "b-*" trees, two-hex fan-out directories, and loose .gob/.tmp files.
func GC(dir, keepStamp string) (removedEntries int, removedBytes int64, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: %w", err)
	}
	remove := func(path string, entries int, bytes int64) error {
		if err := os.RemoveAll(path); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		removedEntries += entries
		removedBytes += bytes
		return nil
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(dir, name)
		switch {
		case de.IsDir() && strings.HasPrefix(name, "b-"):
			stamp := ""
			if b, err := os.ReadFile(filepath.Join(path, stampFile)); err == nil {
				stamp = strings.TrimSpace(string(b))
			}
			if stamp == keepStamp {
				continue
			}
			n, b := countEntries(path)
			if err := remove(path, n, b); err != nil {
				return removedEntries, removedBytes, err
			}
		case de.IsDir() && isHexFanout(name):
			n, b := countEntries(path)
			if err := remove(path, n, b); err != nil {
				return removedEntries, removedBytes, err
			}
		case !de.IsDir() && (filepath.Ext(name) == ".gob" || filepath.Ext(name) == ".tmp"):
			var size int64
			n := 0
			if info, err := de.Info(); err == nil && filepath.Ext(name) == ".gob" {
				size = info.Size()
				n = 1
			}
			if err := remove(path, n, size); err != nil {
				return removedEntries, removedBytes, err
			}
		}
	}
	return removedEntries, removedBytes, nil
}

// Do returns the value cached under key, computing it with compute on
// a miss. Concurrent Do calls with the same key share one execution.
// Errors are returned to every waiter of that execution but are never
// cached: a later Do retries the computation. A panic in compute
// propagates to this caller; the execution's waiters get an error.
func (s *Store[V]) Do(key string, compute func() (V, error)) (V, error) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		v := el.Value.(*lruEntry[V]).val
		s.mu.Unlock()
		return v, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	computed := false
	defer func() {
		if !computed {
			c.err = fmt.Errorf("resultstore: computing %s panicked", key)
			close(c.done)
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
		}
	}()
	fromDisk := false
	if v, ok := s.readDisk(key); ok {
		c.val, fromDisk = v, true
	} else {
		c.val, c.err = compute()
	}
	computed = true
	close(c.done)

	s.mu.Lock()
	delete(s.inflight, key)
	if c.err == nil {
		s.insert(key, c.val)
		if fromDisk {
			s.stats.DiskHits++
		} else {
			s.stats.Misses++
		}
	}
	s.mu.Unlock()
	if c.err == nil && !fromDisk {
		s.writeDisk(key, c.val)
	}
	return c.val, c.err
}

// Get returns the value cached in memory or on disk, without
// computing anything.
func (s *Store[V]) Get(key string) (V, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		v := el.Value.(*lruEntry[V]).val
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	if v, ok := s.readDisk(key); ok {
		s.mu.Lock()
		s.insert(key, v)
		s.stats.DiskHits++
		s.mu.Unlock()
		return v, true
	}
	var zero V
	return zero, false
}

// insert adds key to the memory layer, evicting from the LRU tail.
// Callers hold s.mu.
func (s *Store[V]) insert(key string, v V) {
	if el, ok := s.entries[key]; ok { // lost a race with another path
		s.ll.MoveToFront(el)
		return
	}
	s.entries[key] = s.ll.PushFront(&lruEntry[V]{key: key, val: v})
	for s.ll.Len() > s.max {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.entries, tail.Value.(*lruEntry[V]).key)
		s.stats.Evicted++
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	return st
}

// path maps a key to its disk file. Keys are hex hashes, so they are
// safe path components; a two-character fan-out keeps directories
// small.
func (s *Store[V]) path(key string) string {
	if len(key) < 3 {
		return filepath.Join(s.dir, key+".gob")
	}
	return filepath.Join(s.dir, key[:2], key[2:]+".gob")
}

// readDisk loads a value from the disk layer; a missing or undecodable
// file is a miss (a corrupt entry is recomputed and rewritten, never
// fatal).
func (s *Store[V]) readDisk(key string) (V, bool) {
	var zero V
	if s.dir == "" {
		return zero, false
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return zero, false
	}
	var v V
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return zero, false
	}
	return v, true
}

// writeDisk stores a value in the disk layer; failures are silently
// dropped (the cache is an accelerator, not a system of record).
func (s *Store[V]) writeDisk(key string, v V) {
	if s.dir == "" {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	// Write-fsync-rename so a crash can never publish a torn or empty
	// entry under the final name: the rename only happens after the
	// temp file's bytes are durable. (A torn temp file left by a crash
	// is invisible to readDisk and swept by GC.)
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return
	}
	if err := f.Close(); err != nil {
		return
	}
	_ = os.Rename(tmp, p)
}
