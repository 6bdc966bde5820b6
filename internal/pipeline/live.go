package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Live is the push-mode form of the engine: the caller feeds operations
// one at a time instead of handing over an OpSource, and may take a
// consistent Snapshot of every analyzer's partial state at any point
// without stopping ingest for longer than a pipeline flush. Run is a
// thin loop over a Live, so the batch path and the daemon path exercise
// the same router, the same worker goroutines, and the same analyzers.
//
// A Live's methods are not safe for concurrent use — the feeder owns
// it. A daemon that snapshots from another goroutine (cmd/nfsmond)
// serializes Feed and Fork with its own mutex; the batch path pays no
// synchronization at all on the per-op hot loop.
type Live struct {
	workers int
	batch   int

	analyzers []Analyzer

	perShard [][]Accumulator
	shardCh  []chan liveBatch
	globalCh []chan liveBatch
	wg       sync.WaitGroup

	rt      *router
	bufs    [][]*core.Op
	ordered []*core.Op
	stats   Stats
	done    bool
}

// liveBatch is one message to a worker: a batch of operations and,
// when arrive is non-nil, a snapshot barrier — the worker signals
// arrival after consuming the batch and parks until release closes.
type liveBatch struct {
	ops     []*core.Op
	arrive  *sync.WaitGroup
	release chan struct{}
}

// NewLive opens every analyzer and starts the shard workers.
func NewLive(cfg Config, analyzers ...Analyzer) *Live {
	lv := &Live{
		workers:   cfg.workers(),
		batch:     cfg.batchSize(),
		analyzers: analyzers,
	}
	var global []Accumulator
	lv.perShard = make([][]Accumulator, lv.workers)
	for _, a := range analyzers {
		if _, ok := a.(GlobalAnalyzer); ok {
			global = append(global, a.adapter().open(1)[0])
			continue
		}
		for i, acc := range a.adapter().open(lv.workers) {
			lv.perShard[i] = append(lv.perShard[i], acc)
		}
	}

	lv.shardCh = make([]chan liveBatch, lv.workers)
	for w := 0; w < lv.workers; w++ {
		lv.shardCh[w] = make(chan liveBatch, 4)
		lv.wg.Add(1)
		go func(w int) {
			defer lv.wg.Done()
			accs := lv.perShard[w]
			for b := range lv.shardCh[w] {
				for _, op := range b.ops {
					for _, acc := range accs {
						acc.Add(op)
					}
				}
				if b.arrive != nil {
					b.arrive.Done()
					<-b.release
				}
			}
		}(w)
	}

	lv.globalCh = make([]chan liveBatch, len(global))
	for g, acc := range global {
		lv.globalCh[g] = make(chan liveBatch, 4)
		lv.wg.Add(1)
		go func(g int, acc Accumulator) {
			defer lv.wg.Done()
			for b := range lv.globalCh[g] {
				for _, op := range b.ops {
					acc.Add(op)
				}
				if b.arrive != nil {
					b.arrive.Done()
					<-b.release
				}
			}
		}(g, acc)
	}

	lv.rt = newRouter(lv.workers)
	lv.bufs = make([][]*core.Op, lv.workers)
	return lv
}

// Feed routes one operation into the engine. The op must not be
// mutated afterwards.
func (lv *Live) Feed(op *core.Op) {
	lv.stats.count(op)

	w := lv.rt.shard(op)
	lv.bufs[w] = append(lv.bufs[w], op)
	if len(lv.bufs[w]) >= lv.batch {
		lv.flushShard(w)
	}
	if len(lv.globalCh) > 0 {
		lv.ordered = append(lv.ordered, op)
		if len(lv.ordered) >= lv.batch {
			lv.flushOrdered()
		}
	}
}

// Stats reports the stream statistics so far. Like every Live method it
// is only meaningful under the feeder's serialization.
func (lv *Live) Stats() Stats { return lv.stats }

func (lv *Live) flushShard(w int) {
	if len(lv.bufs[w]) > 0 {
		lv.shardCh[w] <- liveBatch{ops: lv.bufs[w]}
		lv.bufs[w] = nil
	}
}

func (lv *Live) flushOrdered() {
	if len(lv.ordered) > 0 {
		for _, ch := range lv.globalCh {
			// One read-only batch shared by every global analyzer.
			ch <- liveBatch{ops: lv.ordered}
		}
		lv.ordered = nil
	}
}

// shutdown closes every channel and waits for the workers to drain.
func (lv *Live) shutdown() {
	for _, ch := range lv.shardCh {
		close(ch)
	}
	for _, ch := range lv.globalCh {
		close(ch)
	}
	lv.wg.Wait()
	lv.done = true
}

// Finish flushes the pipeline, stops the workers, closes every
// analyzer, and returns the final statistics. The Live is spent.
func (lv *Live) Finish() Stats {
	lv.Quiesce()
	for _, a := range lv.analyzers {
		a.adapter().close()
	}
	return lv.stats
}

// Quiesce flushes the pipeline and stops the workers WITHOUT closing
// the analyzers: every accumulator holds its exact mid-stream partial
// state, ready for WritePartial to serialize. The Live is spent for
// feeding; analyzers stay open so a later decode can still fold into
// them. Returns the stream statistics.
func (lv *Live) Quiesce() Stats {
	for w := range lv.bufs {
		lv.flushShard(w)
	}
	lv.flushOrdered()
	lv.shutdown()
	return lv.stats
}

// Abort stops the workers without closing the analyzers; their results
// are undefined. Used on source errors.
func (lv *Live) Abort() {
	for w := range lv.bufs {
		lv.bufs[w] = nil
	}
	lv.ordered = nil
	lv.shutdown()
}

// Snapshot is a consistent copy of a Live's entire state at one point
// in the op stream: every analyzer's partial reduction, the router's
// name bindings, and the stream statistics. It is a single-threaded
// continuation — Feed it the rest of a stream (or a joiner's pending
// ops) and Finish it to produce exactly the output a batch run over
// the full prefix would have produced, while the original Live keeps
// ingesting undisturbed.
type Snapshot struct {
	// Analyzers holds the forked analyzers in registration order; after
	// Finish, read results from them exactly as after Run.
	Analyzers []Analyzer

	perShard   [][]Accumulator
	globalAccs []Accumulator
	rt         *router
	stats      Stats
	finished   bool
}

// Fork takes a snapshot. It flushes every buffered batch, parks all
// workers at a barrier (so no Add is in flight), deep-copies every
// analyzer and the router, then releases the workers. Ingest stalls
// only for the copy, not for the analyses.
func (lv *Live) Fork() (*Snapshot, error) {
	if lv.done {
		return nil, fmt.Errorf("pipeline: Fork after Finish/Abort")
	}

	// Flush pending batches, then post the barrier to every channel.
	for w := range lv.bufs {
		lv.flushShard(w)
	}
	lv.flushOrdered()
	var arrive sync.WaitGroup
	arrive.Add(lv.workers + len(lv.globalCh))
	release := make(chan struct{})
	for _, ch := range lv.shardCh {
		ch <- liveBatch{arrive: &arrive, release: release}
	}
	for _, ch := range lv.globalCh {
		ch <- liveBatch{arrive: &arrive, release: release}
	}
	arrive.Wait()

	// All workers parked: copy everything, then let them run again.
	snap := &Snapshot{
		Analyzers: make([]Analyzer, 0, len(lv.analyzers)),
		perShard:  make([][]Accumulator, lv.workers),
		rt:        lv.rt.clone(),
		stats:     lv.stats,
	}
	for _, a := range lv.analyzers {
		fa, accs := a.adapter().fork()
		snap.Analyzers = append(snap.Analyzers, fa)
		if _, ok := a.(GlobalAnalyzer); ok {
			snap.globalAccs = append(snap.globalAccs, accs[0])
		} else {
			for i, acc := range accs {
				snap.perShard[i] = append(snap.perShard[i], acc)
			}
		}
	}
	close(release)
	return snap, nil
}

// Feed routes one operation into the snapshot continuation.
func (s *Snapshot) Feed(op *core.Op) {
	s.stats.count(op)

	w := s.rt.shard(op)
	for _, acc := range s.perShard[w] {
		acc.Add(op)
	}
	for _, acc := range s.globalAccs {
		acc.Add(op)
	}
}

// Finish closes every forked analyzer and returns the statistics.
// Idempotent after the first call.
func (s *Snapshot) Finish() Stats {
	if !s.finished {
		for _, a := range s.Analyzers {
			a.adapter().close()
		}
		s.finished = true
	}
	return s.stats
}

// clone copies the router, including the binding map, so a snapshot
// continuation resolves removes and renames exactly as the live engine
// will.
func (r *router) clone() *router {
	cp := &router{shards: r.shards, names: make(map[binding]core.FH, len(r.names))}
	for k, v := range r.names {
		cp.names[k] = v
	}
	return cp
}
