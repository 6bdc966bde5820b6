// Package window maintains rolling time-window reducer state for the
// always-on analysis daemon (cmd/nfsmond). A Ring buckets the op
// stream into tumbling windows of fixed width — each window holds an
// analysis.Summary, the paper's Table 2 reduction — and keeps the most
// recent cells so sliding aggregates (the last k windows merged) and
// per-window series can be served at any moment.
//
// The reduction per cell is exact and mergeable, so a sliding view is
// just a Merge over retained cells: the same shard/merge property the
// batch pipeline relies on, applied over time instead of over file
// handles.
package window

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Cell is one tumbling window.
type Cell struct {
	// Start is the window's start time in trace seconds; it covers
	// [Start, Start+width).
	Start float64
	// Sum is the window's reduction.
	Sum *analysis.Summary
	// Ops is the op count (same as Sum.TotalOps, kept for cheap series).
	Ops int64
}

// Ring is a fixed-width tumbling-window accumulator retaining the most
// recent Keep windows. It is not safe for concurrent use; the daemon
// serializes Add and the View calls.
type Ring struct {
	width float64
	keep  int

	cells []Cell // cells[i mod keep] holds window index i
	cur   int64  // current (highest) window index
	begun bool

	lastT float64
	late  int64 // ops older than the retained horizon, dropped
}

// NewRing creates a ring of tumbling windows of the given width in
// seconds, retaining the keep most recent. Width must be positive;
// keep must be at least 1.
func NewRing(width float64, keep int) *Ring {
	if width <= 0 || keep < 1 {
		panic("window: invalid ring geometry")
	}
	return &Ring{width: width, keep: keep, cells: make([]Cell, keep)}
}

// Width reports the window width in seconds.
func (r *Ring) Width() float64 { return r.width }

// Keep reports the retention depth in windows.
func (r *Ring) Keep() int { return r.keep }

// Late reports ops dropped for arriving older than the retained
// horizon.
func (r *Ring) Late() int64 { return r.late }

// LastT reports the latest op time added.
func (r *Ring) LastT() float64 { return r.lastT }

// index returns the window index containing t, anchored at multiples
// of the width so window boundaries are stable regardless of when the
// first op arrives.
func (r *Ring) index(t float64) int64 { return int64(math.Floor(t / r.width)) }

// slot returns the ring slot for window index i.
func (r *Ring) slot(i int64) *Cell {
	c := &r.cells[int(((i%int64(r.keep))+int64(r.keep)))%r.keep]
	return c
}

// Add folds one operation into its window, rolling the ring forward
// when the op starts a newer window. Ops need not be perfectly ordered;
// anything within the retained horizon still lands in its cell, while
// older stragglers are counted in Late and dropped.
func (r *Ring) Add(op *core.Op) {
	i := r.index(op.T)
	if !r.begun {
		r.begun = true
		r.cur = i
		*r.slot(i) = Cell{Start: float64(i) * r.width, Sum: analysis.NewSummary(0)}
	}
	if op.T > r.lastT {
		r.lastT = op.T
	}
	switch {
	case i > r.cur:
		// Roll forward, clearing every slot the stream skipped.
		from := i - int64(r.keep) + 1
		if prev := r.cur + 1; prev > from {
			from = prev
		}
		for k := from; k <= i; k++ {
			*r.slot(k) = Cell{Start: float64(k) * r.width, Sum: analysis.NewSummary(0)}
		}
		r.cur = i
	case i <= r.cur-int64(r.keep):
		r.late++
		return
	default:
		// Late but retained: the cell is still live.
	}
	c := r.slot(i)
	if c.Sum == nil {
		// A retained-range cell the ring never initialized (op older
		// than the first window seen): anchor it now.
		*c = Cell{Start: float64(i) * r.width, Sum: analysis.NewSummary(0)}
	}
	c.Sum.Add(op)
	c.Ops = c.Sum.TotalOps
}

// CurrentStart reports the start time of the newest window, or 0
// before any op.
func (r *Ring) CurrentStart() float64 {
	if !r.begun {
		return 0
	}
	return float64(r.cur) * r.width
}

// Lag reports how deep into the current window the stream has
// progressed: lastT − CurrentStart, which by construction lies in
// [0, width). It is the daemon's window-lag gauge — a bounded value
// whose growth past the width would mean the roll-forward logic
// failed.
func (r *Ring) Lag() float64 {
	if !r.begun {
		return 0
	}
	return r.lastT - r.CurrentStart()
}

// Cells returns the retained windows that saw any ops, oldest first,
// cloning each summary so callers keep a consistent view while the
// ring rolls on.
func (r *Ring) Cells() []Cell {
	if !r.begun {
		return nil
	}
	out := make([]Cell, 0, r.keep)
	for i := r.cur - int64(r.keep) + 1; i <= r.cur; i++ {
		c := r.slot(i)
		// A slot holds window i only if it was initialized for i
		// specifically; stale, unfilled, and empty slots are skipped.
		if c.Sum == nil || c.Start != float64(i)*r.width || c.Ops == 0 {
			continue
		}
		sum := analysis.NewSummary(0)
		sum.Merge(c.Sum, analysis.Filter{})
		out = append(out, Cell{Start: c.Start, Sum: sum, Ops: c.Ops})
	}
	return out
}

// Sliding merges the newest k retained windows into one summary — the
// sliding-window view over the tumbling cells. k is clamped to the
// retention depth.
func (r *Ring) Sliding(k int) *analysis.Summary {
	sum := analysis.NewSummary(0)
	if !r.begun {
		return sum
	}
	if k < 1 {
		k = 1
	}
	if k > r.keep {
		k = r.keep
	}
	for i := r.cur - int64(k) + 1; i <= r.cur; i++ {
		c := r.slot(i)
		if c.Sum == nil || c.Start != float64(i)*r.width {
			continue
		}
		sum.Merge(c.Sum, analysis.Filter{})
	}
	return sum
}
