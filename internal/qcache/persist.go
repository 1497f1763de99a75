package qcache

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Cross-run persistence. The cache serializes to JSONL — one entry per
// line — so repeated runs on the same guest binary warm-start. The
// format is self-describing and safe to merge:
//
//	{"k":<key>,"e":[<elem>...],"s":true,"m":{"<var name>":<value>}}
//
// Keys and element hashes are structural (variables hash by name, see
// key.go), so entries from a previous process land on the same keys.
// Sat models are stored keyed by variable *name* and re-validated with
// ValidateModel before any hit is served, so a stale or foreign sat entry can
// cost a re-solve but never a wrong model. Unsat entries are trusted by
// key: a matching key means a structurally identical constraint set
// (modulo 64-bit hash collision, the standard exposure of any hashed
// cache).
//
// The same wire form crosses process boundaries live: campaign workers
// export their new entries to the coordinator and import the merged set
// of their peers (ExportEntries / ImportEntries), so one worker's solve
// is every worker's warm start.

// WireEntry is the on-disk and on-the-wire form of one cache entry.
type WireEntry struct {
	Key   uint64            `json:"k"`
	Elems []uint64          `json:"e"`
	Sat   bool              `json:"s"`
	Model map[string]uint64 `json:"m,omitempty"`
}

// Valid reports whether the entry is structurally well-formed: every
// entry names its constraint elements in strictly increasing order (the
// canonical form the subset tests rely on), and a sat entry carries a
// model.
func (w WireEntry) Valid() bool {
	for i := 1; i < len(w.Elems); i++ {
		if w.Elems[i] <= w.Elems[i-1] {
			return false
		}
	}
	return len(w.Elems) > 0 && (!w.Sat || w.Model != nil)
}

// wireEntry converts a valid wire entry to a cache entry.
func wireEntry(w WireEntry) *entry {
	ent := &entry{key: w.Key, elems: w.Elems, sat: w.Sat}
	if w.Model != nil {
		ent.byName.Store(&w.Model)
	}
	return ent
}

// ExportEntries snapshots every cache entry in wire form, sorted by key
// (deterministic for a given entry set). Entries are immutable once
// inserted, so the returned slice can be serialized without copying.
func (c *Cache) ExportEntries() []WireEntry {
	out, _ := c.ExportSince(0)
	return out
}

// ExportSince returns, in wire form and sorted by key, the entries
// inserted after the first cursor ones, and the cursor that follows the
// last entry returned. Cursor 0 exports every entry; a caller that
// passes back the returned cursor sees each entry once, at a cost
// proportional to the new entries only.
func (c *Cache) ExportSince(cursor int) ([]WireEntry, int) {
	c.mu.Lock()
	n := len(c.log)
	ents := c.log[min(cursor, n):n]
	c.mu.Unlock()
	out := make([]WireEntry, len(ents))
	for i, ent := range ents {
		out[i] = WireEntry{Key: ent.key, Elems: ent.elems, Sat: ent.sat, Model: c.names(ent)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, n
}

// ImportEntries merges wire entries into the cache (first writer of a
// key wins; malformed entries are skipped) and reports how many were
// new. Imported entries count as Loaded, like a disk warm start.
func (c *Cache) ImportEntries(ents []WireEntry) int {
	n := 0
	for _, w := range ents {
		if !w.Valid() {
			continue
		}
		if c.insert(wireEntry(w)) {
			c.loaded.Add(1)
			n++
		}
	}
	return n
}

// Save writes every cache entry to path. The write is crash-safe and
// safe against concurrent savers: entries stream into a uniquely named
// temp file in the target directory, which is fsynced and then
// atomically renamed over path — a process killed mid-save (or two
// workers saving the same shared cache file at once) can never leave a
// torn or interleaved file for a peer to load.
func (c *Cache) Save(path string) error {
	ents := c.ExportEntries()

	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, pe := range ents {
		if err := enc.Encode(&pe); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// The rename must not be reordered before the data reaches disk, or
	// a crash between them publishes a complete-looking empty file.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load merges entries from path into the cache. Malformed lines abort
// with an error; a missing file is reported via os.IsNotExist on the
// returned error, which warm-start callers treat as an empty cache.
func (c *Cache) Load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var pe WireEntry
		if err := json.Unmarshal(sc.Bytes(), &pe); err != nil {
			return fmt.Errorf("qcache: %s:%d: %v", path, line, err)
		}
		if !pe.Valid() {
			return fmt.Errorf("qcache: %s:%d: malformed entry", path, line)
		}
		if c.insert(wireEntry(pe)) {
			c.loaded.Add(1)
		}
	}
	return sc.Err()
}
