package analysis

import (
	"repro/internal/core"
	"repro/internal/state"
)

// Reducer is the one contract every analysis state in this package
// implements. It is all internal/pipeline needs to shard a reduction,
// merge the shards, snapshot it mid-stream, serialize it, and resume it
// in another process — each of those is a composition of the three
// methods, written once in pipeline's sharded adapter:
//
//	close     merge every shard into a fresh reducer, finish once
//	clone     fresh reducer + Merge
//	serialize merge every shard into a fresh reducer, State with an encoding codec
//	resume    State with a decoding codec into a fresh reducer, Merge the share each shard owns
//
// Add folds one operation in; operations arrive in trace-time order.
//
// Merge folds src — a partial over an earlier or disjoint part of the
// stream — into the receiver, restricted to the share f selects. The
// invariants the compositions above rely on:
//
//   - Merging into a fresh reducer with the zero Filter reproduces
//     src: finishing the copy equals finishing src.
//   - The copy is independent. No later Add to either side may change
//     what the other computes. Sharing is allowed only for state that
//     is never mutated in place (AccessMap shares capped slices).
//   - Merging src once under each of a set of filters whose Owns
//     predicates partition the handle space is the same as merging it
//     once unfiltered: per-file state follows its handle, and state
//     not keyed by a handle is taken by exactly one of them.
//   - Merge must not mutate src.
//
// A parallel-exact reducer (summary, hourly, runs, reorder, peak-hour,
// mailbox) additionally merges independent partials, in trace-time
// order, into exactly the single-pass state. A sequential reducer
// (block lifetimes, hierarchy, names) is only ever merged into a fresh
// receiver; its partials compose as a resume chain instead.
//
// State is the reducer's serialized layout, written once for both
// directions: it hands every field to the codec, which writes it when
// encoding and overwrites it with what it reads when decoding. Decoding
// fills a freshly constructed reducer. It first codes the configuration
// and checks it against the receiver's: a mismatch fails the codec
// (state.ErrCorrupt) before the receiver is touched.
type Reducer[R any] interface {
	Add(op *core.Op)
	Merge(src R, f Filter)
	State(c *state.Codec)
}

// Filter selects the share of a source partial that a Merge folds in.
// The zero Filter selects everything.
type Filter struct {
	// Owns, when set, restricts per-file state to the handles it
	// accepts. State not keyed by a handle (counters, sample sets) goes
	// wherever handle 0 goes, so of a set of filters that partition the
	// handles exactly one takes it.
	Owns func(core.FH) bool
	// Binding, when set, further restricts (directory, name) → child
	// bindings. The pipeline passes the router's view here when it
	// serializes, because a shard can hold a binding that an operation
	// routed to another shard has since replaced.
	Binding func(dir core.FH, name string, child core.FH) bool
}

func (f Filter) owns(fh core.FH) bool { return f.Owns == nil || f.Owns(fh) }

// unkeyed reports whether f takes the state no handle keys.
func (f Filter) unkeyed() bool { return f.owns(0) }

func (f Filter) binding(nb nameBinding, child core.FH) bool {
	return f.owns(child) && (f.Binding == nil || f.Binding(nb.dir, nb.name, child))
}

// roomFor returns dst — or, when dst is still empty and the merge takes
// all of src (a clone, or a merge into a fresh reducer), an empty map
// already sized for it. Growing a map an entry at a time rehashes at
// every doubling, which costs about a third of Live.Fork's stall.
func roomFor[K comparable, V any](dst, src map[K]V, owns func(K) bool) map[K]V {
	if len(dst) == 0 && owns == nil {
		return make(map[K]V, len(src))
	}
	return dst
}

// overlay copies the entries of src whose key owns accepts (nil: all)
// over dst's and returns the result.
func overlay[K comparable, V any](dst, src map[K]V, owns func(K) bool) map[K]V {
	dst = roomFor(dst, src, owns)
	for k, v := range src {
		if owns == nil || owns(k) {
			dst[k] = v
		}
	}
	return dst
}
