package pipeline

import (
	"fmt"
	"maps"
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
//
// Feed copies each operation into its shard's batch by value, so the
// caller owns the op again as soon as Feed returns. A worker hands the
// batch it has consumed back on its shard's spares channel, and Feed
// fills it again, so the steady state allocates no batches. Global
// analyzers run on the feeder, against the batch's copy before it is
// sent.
type Live struct {
	workers int
	batch   int

	analyzers []Analyzer

	perShard [][]Accumulator
	global   []Accumulator
	shardCh  []chan liveBatch
	spares   []chan []core.Op
	wg       sync.WaitGroup

	rt    *router
	bufs  [][]core.Op
	stats Stats
	done  bool
}

// liveBatch is one message to a worker: a batch of operations or, when
// arrive is non-nil, a snapshot barrier that carries none — the worker
// signals arrival and parks until release closes.
type liveBatch struct {
	ops     []core.Op
	arrive  *sync.WaitGroup
	release chan struct{}
}

// sparesPerShard is how many consumed batches a shard keeps for Feed
// to refill. Two cover a worker that is one batch behind; a worker
// that returns a batch while both are there drops it for the collector,
// so a burst that made more batches does not hold their memory.
const sparesPerShard = 2

// NewLive opens every analyzer and starts the shard workers.
func NewLive(cfg Config, analyzers ...Analyzer) *Live {
	lv := &Live{
		workers:   cfg.workers(),
		batch:     cfg.batchSize(),
		analyzers: analyzers,
	}
	lv.perShard = make([][]Accumulator, lv.workers)
	for _, a := range analyzers {
		if _, ok := a.(GlobalAnalyzer); ok {
			lv.global = append(lv.global, a.adapter().open(1)[0])
			continue
		}
		for i, acc := range a.adapter().open(lv.workers) {
			lv.perShard[i] = append(lv.perShard[i], acc)
		}
	}

	lv.shardCh = make([]chan liveBatch, lv.workers)
	lv.spares = make([]chan []core.Op, lv.workers)
	for w := 0; w < lv.workers; w++ {
		lv.shardCh[w] = make(chan liveBatch, 4)
		lv.spares[w] = make(chan []core.Op, sparesPerShard)
		lv.wg.Add(1)
		go func(w int) {
			defer lv.wg.Done()
			accs := lv.perShard[w]
			for b := range lv.shardCh[w] {
				if b.arrive != nil {
					b.arrive.Done()
					<-b.release
					continue
				}
				for i := range b.ops {
					for _, acc := range accs {
						acc.Add(&b.ops[i])
					}
				}
				select {
				case lv.spares[w] <- b.ops[:0]:
				default:
				}
			}
		}(w)
	}

	lv.rt = newRouter(lv.workers)
	lv.bufs = make([][]core.Op, lv.workers)
	return lv
}

// Feed routes one operation into the engine. The engine never writes
// op and keeps no reference to it once Feed returns.
func (lv *Live) Feed(op *core.Op) {
	lv.stats.count(op)

	target, w := lv.rt.route(op)
	buf := lv.bufs[w]
	if buf == nil {
		select {
		case buf = <-lv.spares[w]:
		default:
			buf = make([]core.Op, 0, lv.batch)
		}
	}
	buf = append(buf, *op)
	cp := &buf[len(buf)-1]
	cp.Target = target
	for _, acc := range lv.global {
		acc.Add(cp)
	}
	lv.bufs[w] = buf
	if len(buf) >= lv.batch {
		lv.flushShard(w)
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

// shutdown closes every channel and waits for the workers to drain.
func (lv *Live) shutdown() {
	for _, ch := range lv.shardCh {
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
	lv.shutdown()
	return lv.stats
}

// Abort stops the workers without closing the analyzers; their results
// are undefined. Used on source errors.
func (lv *Live) Abort() {
	for w := range lv.bufs {
		lv.bufs[w] = nil
	}
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
	op         core.Op // the routed copy of the op being fed
	stats      Stats
	finished   bool
}

// Fork takes a snapshot. It flushes every buffered batch, parks all
// shard workers at a barrier (so no Add is in flight; the global
// analyzers run on the feeder and are idle), deep-copies every
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
	var arrive sync.WaitGroup
	arrive.Add(lv.workers)
	release := make(chan struct{})
	for _, ch := range lv.shardCh {
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

// Feed routes one operation into the snapshot continuation. Like
// Live.Feed, it never writes op and keeps no reference to it.
func (s *Snapshot) Feed(op *core.Op) {
	s.stats.count(op)

	target, w := s.rt.route(op)
	s.op = *op
	s.op.Target = target
	for _, acc := range s.perShard[w] {
		acc.Add(&s.op)
	}
	for _, acc := range s.globalAccs {
		acc.Add(&s.op)
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
	return &router{shards: r.shards, names: maps.Clone(r.names)}
}
