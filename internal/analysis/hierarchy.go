package analysis

import (
	"strings"

	"repro/internal/core"
)

// Hierarchy reconstructs the active part of the server's namespace
// on the fly from lookup/create/rename traffic, as §4.1.1 describes:
// after a few minutes of trace, almost every handle's parent is known.
type Hierarchy struct {
	// parent maps a file handle to its (parent handle, name) edge.
	parent map[core.FH]nameBinding
	// byEdge is the reverse index, (dir, name) → most recent child, so
	// renames and removes resolve in O(1) instead of scanning parent.
	// Entries can go stale when a child re-binds under another name;
	// resolve validates against parent before trusting one.
	byEdge map[nameBinding]core.FH
	// known tracks handles seen in any position.
	known map[core.FH]bool

	// Coverage counters: of the ops naming a primary handle, how many
	// had that handle already resolvable to a path.
	resolvable int64
	total      int64
}

// NewHierarchy returns an empty namespace model.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		parent: make(map[core.FH]nameBinding),
		byEdge: make(map[nameBinding]core.FH),
		known:  make(map[core.FH]bool),
	}
}

// Observe feeds one op through the reconstruction, updating edges and
// coverage statistics. Ops must be fed in trace order.
func (h *Hierarchy) Observe(op *core.Op) {
	// Coverage check first: is this op's handle already placeable?
	if op.FH != 0 {
		h.total++
		if h.known[op.FH] {
			h.resolvable++
		}
	}
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		if op.NewFH != 0 && op.Name != "" {
			e := nameBinding{dir: op.FH, name: op.Name}
			if old, ok := h.parent[op.NewFH]; ok && old != e && h.byEdge[old] == op.NewFH {
				// The child re-binds under a new edge; drop the index
				// entry for the old one so it cannot act on the child.
				delete(h.byEdge, old)
			}
			h.parent[op.NewFH] = e
			h.byEdge[e] = op.NewFH
			h.known[op.NewFH] = true
			h.known[op.FH] = true
		}
	case core.ProcRename:
		// Move the child currently bound to the old edge, if we know it.
		old := nameBinding{dir: op.FH, name: op.Name}
		if fh, ok := h.resolve(old); ok {
			next := nameBinding{dir: op.FH2, name: op.Name2}
			h.parent[fh] = next
			delete(h.byEdge, old)
			h.byEdge[next] = fh
		}
	case core.ProcRemove, core.ProcRmdir:
		e := nameBinding{dir: op.FH, name: op.Name}
		if fh, ok := h.resolve(e); ok {
			delete(h.parent, fh)
			delete(h.byEdge, e)
		}
	default:
		if op.FH != 0 {
			h.known[op.FH] = true
		}
	}
}

// resolve returns a child whose current parent edge is e. The reverse
// index answers in O(1); a stale entry (the indexed child has since
// re-bound elsewhere) falls back to the scan the index replaces, which
// also repairs the index. ok is false when no child is bound to e.
func (h *Hierarchy) resolve(e nameBinding) (core.FH, bool) {
	if fh, ok := h.byEdge[e]; ok && h.parent[fh] == e {
		return fh, true
	}
	for fh, pe := range h.parent {
		if pe == e {
			h.byEdge[e] = fh
			return fh, true
		}
	}
	delete(h.byEdge, e)
	return 0, false
}

// Path reconstructs the name of a handle from known edges, ending at a
// handle with no known parent (rendered as its hex form through the
// intern table's reverse lookup). ok is false when fh itself is
// unknown.
func (h *Hierarchy) Path(fh core.FH) (string, bool) {
	if !h.known[fh] {
		return "", false
	}
	var parts []string
	cur := fh
	for depth := 0; depth < 64; depth++ {
		e, ok := h.parent[cur]
		if !ok {
			break
		}
		parts = append([]string{e.name}, parts...)
		cur = e.dir
	}
	return "[" + cur.String() + "]/" + strings.Join(parts, "/"), true
}

// Known reports whether fh has been seen in any position.
func (h *Hierarchy) Known(fh core.FH) bool { return h.known[fh] }

// Coverage reports the fraction of handle-bearing ops whose handle was
// already known when the op arrived.
func (h *Hierarchy) Coverage() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.resolvable) / float64(h.total)
}

// Edges reports the number of known parent edges.
func (h *Hierarchy) Edges() int { return len(h.parent) }

// merge folds src's edges, index and known set into h.
func (h *Hierarchy) merge(src *Hierarchy) {
	h.parent = overlay(h.parent, src.parent, nil)
	h.byEdge = overlay(h.byEdge, src.byEdge, nil)
	h.known = overlay(h.known, src.known, nil)
	h.resolvable += src.resolvable
	h.total += src.total
}

// HierarchyCoverage is the §4.1.1 coverage reducer: it runs the
// reconstruction over the whole stream and counts, from warmup seconds
// after the first operation on, how many handle-bearing ops name a
// handle already known — the paper's claim is that this approaches 1
// within minutes. The namespace is learned from other files' lookups,
// so the state does not partition by handle and the reducer is
// sequential.
type HierarchyCoverage struct {
	warmup float64
	h      *Hierarchy

	// The warm-up clock starts with the first op of the whole stream,
	// not of a resumed piece, so it travels with the state.
	started           bool
	start             float64
	resolvable, total int64
}

// NewHierarchyCoverage returns an empty reducer ignoring the first
// warmup seconds.
func NewHierarchyCoverage(warmup float64) *HierarchyCoverage {
	return &HierarchyCoverage{warmup: warmup, h: NewHierarchy()}
}

// Add implements Reducer.
func (c *HierarchyCoverage) Add(op *core.Op) {
	if !c.started {
		c.start = op.T + c.warmup
		c.started = true
	}
	if op.T >= c.start && op.FH != 0 {
		c.total++
		if c.h.Known(op.FH) {
			c.resolvable++
		}
	}
	c.h.Observe(op)
}

// Merge implements Reducer. src is the earlier partial, so its warm-up
// clock stands. The namespace is one unit, not keyed by handle.
func (c *HierarchyCoverage) Merge(src *HierarchyCoverage, f Filter) {
	if !f.unkeyed() {
		return
	}
	if src.started {
		c.started, c.start = true, src.start
	}
	c.resolvable += src.resolvable
	c.total += src.total
	c.h.merge(src.h)
}

// Coverage reports the post-warmup fraction of resolvable ops.
func (c *HierarchyCoverage) Coverage() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.resolvable) / float64(c.total)
}
