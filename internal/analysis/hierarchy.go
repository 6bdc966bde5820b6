package analysis

import "repro/internal/core"

// HierarchyCoverage is the §4.1.1 coverage reducer. The paper rebuilds
// the active part of the namespace on the fly from lookup, create and
// rename traffic and finds that after a few minutes almost every
// handle is placeable. This reducer counts, from warmup seconds after
// the first operation on, how many handle-bearing ops name a handle
// already seen — as a directory or child of a lookup, create, mkdir or
// symlink, or as the handle of any other op but a rename or removal.
// The (directory, name) bindings themselves live in the pipeline's
// router. A directory becomes known through lookups of the files in
// it, so the state does not partition by handle and the reducer is
// sequential.
type HierarchyCoverage struct {
	warmup float64
	known  map[core.FH]bool

	// The warm-up clock starts with the first op of the whole stream,
	// not of a resumed piece, so it travels with the state.
	started           bool
	start             float64
	resolvable, total int64
}

// NewHierarchyCoverage returns an empty reducer ignoring the first
// warmup seconds.
func NewHierarchyCoverage(warmup float64) *HierarchyCoverage {
	return &HierarchyCoverage{warmup: warmup, known: make(map[core.FH]bool)}
}

// Add implements Reducer.
func (c *HierarchyCoverage) Add(op *core.Op) {
	if !c.started {
		c.start = op.T + c.warmup
		c.started = true
	}
	if op.T >= c.start && op.FH != 0 {
		c.total++
		if c.known[op.FH] {
			c.resolvable++
		}
	}
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		if op.NewFH != 0 && op.Name != "" {
			c.known[op.NewFH] = true
			c.known[op.FH] = true
		}
	case core.ProcRename, core.ProcRemove, core.ProcRmdir:
		// The handle is the directory the name was in; seeing it here
		// does not place it.
	default:
		if op.FH != 0 {
			c.known[op.FH] = true
		}
	}
}

// Merge implements Reducer. src is the earlier partial, so its warm-up
// clock stands. The known set is one unit, not keyed by handle.
func (c *HierarchyCoverage) Merge(src *HierarchyCoverage, f Filter) {
	if !f.unkeyed() {
		return
	}
	if src.started {
		c.started, c.start = true, src.start
	}
	c.resolvable += src.resolvable
	c.total += src.total
	c.known = overlay(c.known, src.known, nil)
}

// Coverage reports the post-warmup fraction of resolvable ops.
func (c *HierarchyCoverage) Coverage() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.resolvable) / float64(c.total)
}
