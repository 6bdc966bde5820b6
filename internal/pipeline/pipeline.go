// Package pipeline is the streaming, sharded trace-processing engine.
//
// The paper's analyses were designed for multi-day, multi-million-record
// traces that could never fit in one pass of one core's cache. This
// package is the one way from trace records to an analysis result —
// the CLI tools, the daemons and package repro's tables all run it:
//
//	records ──► Joiner ──► router ──► shard workers ──► merge
//	            (streaming             (hash by file      (per-shard
//	             call/reply             handle, name-      reducers)
//	             matching)              resolved)
//
// A Joiner matches calls to replies incrementally and emits operations
// in call-time order with bounded reordering state. The router hashes
// each operation to one of N shards by the file handle it concerns —
// resolving remove and rename through the engine's one (directory,
// name) → handle map, so that an operation always lands on the shard
// that owns the file it affects and carries that file in core.Op.Target
// — and hands workers bounded batches. Each worker feeds its
// shard's accumulator for every registered Analyzer; when the stream
// ends, each analyzer folds its per-shard accumulators into one result.
//
// Determinism is a design requirement, not an accident: every analyzer
// shipped here either partitions exactly by file handle (runs, block
// lifetimes, file names, reorder sweeps, per-file byte accounting) or
// reduces by integer sums whose value is independent of the
// partitioning (summary counts, hourly buckets). Table 1 through
// Table 5 and Figure 1 through Figure 5 therefore produce
// byte-identical output at any worker count, which the tests enforce.
// Analyses whose state genuinely spans files — §4.1.1 hierarchy
// coverage — implement GlobalAnalyzer and run on the feeding goroutine
// over the full ordered stream instead, beside the router.
package pipeline

import (
	"context"
	"io"
	"runtime"

	"repro/internal/core"
)

// Config sizes the engine.
type Config struct {
	// Workers is the shard count; <= 0 selects runtime.GOMAXPROCS(0).
	// One worker reproduces the sequential analysis exactly; any other
	// count produces identical results by construction.
	Workers int
	// BatchSize is the number of ops handed to a worker at a time;
	// <= 0 selects 1024. A batch holds its ops by value, so the
	// default one is 1024 × 144 B, and a shard holds up to eight
	// (filling, queued, in work and spare). Larger batches amortize
	// channel overhead, smaller ones bound latency and memory.
	BatchSize int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 1024
}

// OpSource yields joined operations in call-time order; io.EOF ends the
// stream. SliceOps adapts an in-memory slice; Joiner adapts a record
// stream from a trace file or capture.
type OpSource interface {
	Next() (*core.Op, error)
}

// sliceOps is the in-memory OpSource.
type sliceOps struct {
	ops []*core.Op
	i   int
}

// SliceOps adapts an op slice to OpSource.
func SliceOps(ops []*core.Op) OpSource { return &sliceOps{ops: ops} }

func (s *sliceOps) Next() (*core.Op, error) {
	if s.i >= len(s.ops) {
		return nil, io.EOF
	}
	op := s.ops[s.i]
	s.i++
	return op, nil
}

// Accumulator is the engine's view of one shard's reducer: it is fed
// the operations routed to that shard, in stream order, and is never
// called concurrently.
type Accumulator interface {
	Add(op *core.Op)
}

// Analyzer is one reduction over the op stream: a configuration, the
// place its result lands, and (through adapter) the per-shard reducers
// the engine drives. The engine opens one reducer per shard, feeds
// reducer i exactly the operations routed to shard i, and at the end
// merges them and publishes the result on the analyzer. Analyzers are
// single-use: construct a fresh one per run. The implementations are
// the analyzers in this package.
type Analyzer interface {
	adapter() adapter
}

// GlobalAnalyzer marks analyses whose state cannot be partitioned by
// file handle (hierarchy coverage, where a directory becomes known
// through lookups routed to the files in it). The engine opens them
// with one shard and feeds every operation to it, in order, on the
// feeding goroutine.
type GlobalAnalyzer interface {
	Analyzer
	// Unsharded is a marker; it is never called.
	Unsharded()
}

// Stats summarizes a completed run.
type Stats struct {
	// Ops is the number of operations processed.
	Ops int64
	// MinT and MaxT are the earliest and latest call times seen.
	MinT, MaxT float64
}

// count folds one operation into the statistics.
func (s *Stats) count(op *core.Op) {
	if s.Ops == 0 || op.T < s.MinT {
		s.MinT = op.T
	}
	if s.Ops == 0 || op.T > s.MaxT {
		s.MaxT = op.T
	}
	s.Ops++
}

// Span reports MaxT - MinT, the trace window in seconds.
func (s Stats) Span() float64 {
	if s.Ops == 0 {
		return 0
	}
	return s.MaxT - s.MinT
}

// router assigns each op to the shard that owns the file it affects,
// and it is the engine's one (directory, name) → handle table: the
// §4.1.1 reconstruction every analysis resolves removes and renames
// through. Operations that create bindings are routed by the new
// handle; a REMOVE, RMDIR or RENAME whose name is bound goes to the
// bound file's shard, and the engine's copy of it carries that file in
// core.Op.Target, so a shard's reducers see the complete story of their
// files without keeping names of their own.
type router struct {
	shards uint64
	names  map[binding]core.FH
}

// binding is one (directory, name) edge in the router's name map.
type binding struct {
	dir  core.FH
	name string
}

func newRouter(shards int) *router {
	return &router{
		shards: uint64(shards),
		names:  make(map[binding]core.FH),
	}
}

// mix32 finalizes an interned ID into a well-spread hash (the 32-bit
// murmur3 finalizer). Interned IDs are small dense integers, so without
// mixing, ID % shards would correlate with arrival order.
func mix32(v uint32) uint64 {
	v ^= v >> 16
	v *= 0x85ebca6b
	v ^= v >> 13
	v *= 0xc2b2ae35
	v ^= v >> 16
	return uint64(v)
}

// shardIndex maps a file handle to its owning shard. The router and the
// re-sharding of a decoded state both go through it, so state lands
// exactly where the resumed stream will route that file's operations.
func shardIndex(fh core.FH, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix32(uint32(fh)) % uint64(n))
}

// route maintains the binding table and returns the Target to deliver
// op with (op.Target when its name is not bound) and the shard it goes
// to. Both run at every shard count, so the table and every Target are
// the same whatever the partitioning. op is never written: the engines
// deliver copies, because one op may feed several (a Live and its
// snapshots) at once.
func (r *router) route(op *core.Op) (core.FH, int) {
	fh, target := op.FH, op.Target
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		// The op names a (possibly new) file: bind and route by it.
		if op.NewFH != 0 {
			if op.Name != "" {
				r.names[binding{op.FH, op.Name}] = op.NewFH
			}
			fh = op.NewFH
		}
	case core.ProcRename:
		// The binding follows the moved file, whatever the reply said,
		// and the file's shard sees the rename.
		k := binding{op.FH, op.Name}
		if t, ok := r.names[k]; ok {
			delete(r.names, k)
			r.names[binding{op.FH2, op.Name2}] = t
			fh, target = t, t
		}
	case core.ProcRemove, core.ProcRmdir:
		// Only a successful removal drops the binding: a failed one
		// leaves the name in place. Resolving rmdir too keeps the table
		// from growing forever on mkdir/rmdir churn.
		k := binding{op.FH, op.Name}
		if t, ok := r.names[k]; ok {
			if op.OK() {
				delete(r.names, k)
			}
			fh, target = t, t
		}
	}
	switch {
	case r.shards == 1:
		return target, 0
	case fh == 0:
		// Handleless ops (null, fsstat against the root, ...): spread
		// by client so no shard becomes a hot spot.
		return target, int(mix32(op.Client^0x9e3779b9) % r.shards)
	}
	return target, shardIndex(fh, int(r.shards))
}

// cancelCheckEvery is how many operations FeedFrom feeds between looks
// at its context: often enough that a deadline lands within
// milliseconds, rarely enough that the per-op loop does not pay for it.
const cancelCheckEvery = 4096

// FeedFrom feeds every operation of src into the engine until io.EOF.
// This is the one ingest loop: Run, nfsanalyze in every mode and
// nfsworker all come through it. When src is a *Joiner, each operation
// goes back to it once fed, so the joiner refills the same few ops. A
// source error or a done context aborts the Live and is returned;
// analyzer results are then undefined.
func (lv *Live) FeedFrom(ctx context.Context, src OpSource) error {
	j, _ := src.(*Joiner)
	for n := 0; ; n++ {
		if n%cancelCheckEvery == 0 && ctx.Err() != nil {
			lv.Abort()
			return ctx.Err()
		}
		op, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			lv.Abort()
			return err
		}
		lv.Feed(op)
		if j != nil {
			j.RecycleOp(op)
		}
	}
}

// Run streams src through the engine, feeding every analyzer, and
// returns stream statistics. On a source error the workers are drained
// and the error returned; analyzer results are then undefined. Run is
// the batch loop over a Live engine, so the offline path and the
// daemon path (cmd/nfsmond) are the same machinery.
func Run(cfg Config, src OpSource, analyzers ...Analyzer) (Stats, error) {
	lv := NewLive(cfg, analyzers...)
	if err := lv.FeedFrom(context.Background(), src); err != nil {
		return lv.Stats(), err
	}
	return lv.Finish(), nil
}

// RunSlice runs analyzers over an in-memory op slice; it cannot fail.
func RunSlice(cfg Config, ops []*core.Op, analyzers ...Analyzer) Stats {
	stats, _ := Run(cfg, SliceOps(ops), analyzers...)
	return stats
}
