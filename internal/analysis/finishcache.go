package analysis

import (
	"sync"

	"repro/internal/core"
)

// FinishCache carries the per-file work of one finish of a growing
// stream over to the next. A monitor finishes a fresh fork of its live
// engine on every scrape, and between two scrapes few files receive an
// access, so with the cache a scrape re-sorts only those. One cache
// belongs to one live analyzer and is shared, through ShareCache, by
// every snapshot forked from it; a reducer without one (batch, decoded,
// resumed or merged state) finishes from scratch through the same code.
//
// An entry describes one file's access list of a given length, and it
// is exact because of how such lists grow. Within one live engine a
// file's list only grows at its end, and a fork copies it as it stands,
// so two lists of one file with the same length are the same list. The
// exception is what a snapshot is fed itself: the joiner's pending
// operations, which the live engine may later receive in another
// position, or with reply fields (EOF, size) that a pending call lacks.
// So a snapshot neither reads nor writes the entry of a file its own Add
// touched, and an entry is never replaced by one describing a shorter
// list (a slower scrape of an older fork finishing last). The mutex lets
// two scrapes finish at once.
type FinishCache struct {
	mu      sync.Mutex
	entries map[core.FH]finishEntry
}

// finishEntry is what one finish learned about one file.
type finishEntry struct {
	n     int    // length of the access list the entry describes
	spell string // the handle's rendering, the runs' sort key
	// sorted is the list in reorder-window order (runs); nil when the
	// pass moved nothing, so the file's own list is already in order.
	sorted []Access
	swaps  []int // swaps per window (reorder sweep)
}

// lock and unlock guard the entries; a nil cache has none.
func (c *FinishCache) lock() {
	if c != nil {
		c.mu.Lock()
	}
}

func (c *FinishCache) unlock() {
	if c != nil {
		c.mu.Unlock()
	}
}

// get returns fh's entry; the caller holds the lock.
func (c *FinishCache) get(fh core.FH) (finishEntry, bool) {
	if c == nil {
		return finishEntry{}, false
	}
	e, ok := c.entries[fh]
	return e, ok
}

// put records e for fh unless an entry for a list at least as long is
// already there; the caller holds the lock.
func (c *FinishCache) put(fh core.FH, e finishEntry) {
	if c == nil {
		return
	}
	if old, ok := c.entries[fh]; ok && old.n >= e.n {
		return
	}
	if c.entries == nil {
		c.entries = make(map[core.FH]finishEntry)
	}
	c.entries[fh] = e
}

// accessLists is the state RunDetector and ReorderSweeper share: the
// per-file access lists and, on a snapshot of a live engine, the cache
// its finish goes through.
type accessLists struct {
	files AccessMap
	cache *FinishCache
	fed   map[core.FH]bool // files a snapshot's own Add touched; nil when cache is
}

// ShareCache makes the receiver, a snapshot's copy of a live reducer,
// finish through c. The files its Add touches from now on bypass c.
func (l *accessLists) ShareCache(c *FinishCache) {
	l.cache, l.fed = c, make(map[core.FH]bool)
}

func (l *accessLists) add(op *core.Op) {
	l.files.Add(op)
	if l.fed != nil && !op.IsMetadata() {
		l.fed[op.FH] = true
	}
}

// merge also carries over the files src's own Add touched, which the
// fold of a snapshot's shards into the first one at close needs.
func (l *accessLists) merge(src *accessLists, f Filter) {
	l.files = l.files.merge(src.files, f)
	if l.fed == nil {
		return
	}
	for fh := range src.fed {
		if f.owns(fh) {
			l.fed[fh] = true
		}
	}
}

// fresh reports whether e describes accs, the list of fh.
func (l *accessLists) fresh(fh core.FH, accs []Access, e finishEntry) bool {
	return e.n == len(accs) && !l.fed[fh]
}
