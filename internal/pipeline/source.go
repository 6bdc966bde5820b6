package pipeline

import (
	"container/heap"
	"io"
	"sort"

	"repro/internal/core"
)

// Joiner matches call records to reply records incrementally and emits
// joined operations in call-time order, replacing the
// materialize-then-sort core.Join for streaming sources. Records must
// arrive in capture-time order (every trace source here produces them
// that way).
//
// An operation's time is its call's time, but the operation is only
// complete when the reply arrives, so completions surface out of order
// by up to the RPC latency. The joiner holds completed operations in a
// heap and releases one as soon as nothing earlier can still appear:
// the release horizon is the minimum of the last record time seen and
// the oldest still-pending call.
//
// A call whose reply was lost would pin that horizon forever — one
// dropped packet must not buffer the rest of a week-long trace — so a
// pending call older than MaxCallAge is expired early and surfaces as
// an unmatched operation right away instead of at end of stream.
// Memory is therefore bounded by the in-flight window plus one
// MaxCallAge of unmatched calls. The §4.1.4 loss statistics are
// unchanged; the only divergence from core.Join is a reply arriving
// more than MaxCallAge after its call, which then counts as an orphan.
type Joiner struct {
	src core.RecordSource
	// rec is the source's recycler when it pools its records; the
	// joiner is the point where a record's last field has been copied
	// into an Op, so it hands dead records back here.
	rec     core.RecordRecycler
	pending map[joinKey]pendingCall
	// pendT tracks pending calls by time so the release horizon is
	// O(log n) to maintain; matched entries are deleted lazily.
	pendT    pendHeap
	pendGone map[pendEntry]bool
	ready    opHeap
	seq      int64
	born     int64
	lastT    float64
	drained  bool
	stats    core.JoinStats

	// MaxCallAge is how long a call may wait for its reply before it
	// is given up as unmatched; 0 selects DefaultMaxCallAge. Real RPC
	// latencies are milliseconds, so the default diverges from
	// core.Join only on pathological traces.
	MaxCallAge float64
}

// DefaultMaxCallAge is the default reply-wait budget, far beyond any
// NFS client's retransmission schedule.
const DefaultMaxCallAge = 300.0

type joinKey struct {
	client uint32
	port   uint16
	xid    uint32
}

// pendingCall is one unreplied call. born is its admission sequence
// number, which makes heap entries unique: (key, time) alone can
// repeat — a client may reuse an xid at the same quantized timestamp
// after the first call completed — and a collision between a lazily
// deleted entry and a live one would silently unpin the release
// horizon.
type pendingCall struct {
	rec  *core.Record
	born int64
}

// pendEntry identifies one pending call in the age heap.
type pendEntry struct {
	t    float64
	born int64
	k    joinKey
}

// NewJoiner wraps a time-ordered record source.
func NewJoiner(src core.RecordSource) *Joiner {
	rec, _ := src.(core.RecordRecycler)
	return &Joiner{
		src:      src,
		rec:      rec,
		pending:  make(map[joinKey]pendingCall),
		pendGone: make(map[pendEntry]bool),
	}
}

// free hands a dead record back to a pooling source.
func (j *Joiner) free(r *core.Record) {
	if j.rec != nil {
		j.rec.Recycle(r)
	}
}

func (j *Joiner) maxCallAge() float64 {
	if j.MaxCallAge > 0 {
		return j.MaxCallAge
	}
	return DefaultMaxCallAge
}

// Stats reports call/reply matching statistics; the §4.1.4 loss
// estimate is complete once Next has returned io.EOF.
func (j *Joiner) Stats() core.JoinStats { return j.stats }

// minPending returns the oldest pending call time, discarding lazily
// deleted entries, or ok=false when no calls are pending.
func (j *Joiner) minPending() (float64, bool) {
	for j.pendT.Len() > 0 {
		e := j.pendT[0]
		if j.pendGone[e] {
			delete(j.pendGone, e)
			heap.Pop(&j.pendT)
			continue
		}
		return e.t, true
	}
	return 0, false
}

// expireStale gives up on calls that have waited longer than
// MaxCallAge, surfacing them as unmatched operations so they stop
// pinning the release horizon.
func (j *Joiner) expireStale() {
	limit := j.lastT - j.maxCallAge()
	for {
		t, ok := j.minPending()
		if !ok || t > limit {
			return
		}
		e := j.pendT[0]
		heap.Pop(&j.pendT)
		call := j.pending[e.k].rec
		delete(j.pending, e.k)
		j.stats.UnmatchedCalls++
		j.push(core.FromPair(call, nil))
		j.free(call)
	}
}

// horizon is the time below which no new operation can appear.
func (j *Joiner) horizon() float64 {
	h := j.lastT
	if t, ok := j.minPending(); ok && t < h {
		h = t
	}
	return h
}

func (j *Joiner) push(op *core.Op) {
	j.seq++
	heap.Push(&j.ready, readyOp{op: op, seq: j.seq})
}

// ingest consumes one record, updating pending and ready state.
func (j *Joiner) ingest(r *core.Record) {
	j.lastT = r.Time
	j.expireStale()
	k := joinKey{r.Client, r.Port, r.XID}
	switch r.Kind {
	case core.KindCall:
		j.stats.Calls++
		if _, ok := j.pending[k]; ok {
			// Retransmission: keep the original call time, drop the
			// duplicate, as the paper's tracer did.
			j.free(r)
			return
		}
		j.born++
		j.pending[k] = pendingCall{rec: r, born: j.born}
		heap.Push(&j.pendT, pendEntry{t: r.Time, born: j.born, k: k})
	case core.KindReply:
		j.stats.Replies++
		pc, ok := j.pending[k]
		if !ok {
			j.stats.OrphanReplies++
			j.free(r)
			return
		}
		delete(j.pending, k)
		j.pendGone[pendEntry{t: pc.rec.Time, born: pc.born, k: k}] = true
		j.stats.Matched++
		j.push(core.FromPair(pc.rec, r))
		j.free(pc.rec)
		j.free(r)
	}
}

// unmatched returns the calls still awaiting replies in the order an
// end-of-stream drain surfaces them: by (time, client, port, xid). drain
// and PendingOps both use it, which is what keeps a finished snapshot
// equal to a batch run.
func (j *Joiner) unmatched() []*core.Record {
	calls := make([]*core.Record, 0, len(j.pending))
	for _, pc := range j.pending {
		calls = append(calls, pc.rec)
	}
	sort.Slice(calls, func(a, b int) bool {
		x, y := calls[a], calls[b]
		if x.Time != y.Time {
			return x.Time < y.Time
		}
		if x.Client != y.Client {
			return x.Client < y.Client
		}
		if x.Port != y.Port {
			return x.Port < y.Port
		}
		return x.XID < y.XID
	})
	return calls
}

// drain flushes the calls that never got replies, in deterministic
// order, once the source is exhausted.
func (j *Joiner) drain() {
	for _, call := range j.unmatched() {
		j.stats.UnmatchedCalls++
		j.push(core.FromPair(call, nil))
		j.free(call)
	}
	j.pending = nil
	j.pendT = nil
	j.pendGone = nil
	j.drained = true
}

// Next implements OpSource.
func (j *Joiner) Next() (*core.Op, error) {
	for {
		if j.drained {
			if j.ready.Len() == 0 {
				return nil, io.EOF
			}
			return heap.Pop(&j.ready).(readyOp).op, nil
		}
		if j.ready.Len() > 0 && j.ready[0].op.T < j.horizon() {
			return heap.Pop(&j.ready).(readyOp).op, nil
		}
		r, err := j.src.Next()
		if err == io.EOF {
			j.drain()
			continue
		}
		if err != nil {
			return nil, err
		}
		j.ingest(r)
	}
}

// NewPushJoiner returns a joiner for push-mode use: the caller feeds
// records with Push and flushes with Drain. Next must not be called on
// a push-mode joiner (there is no underlying source to pull from).
func NewPushJoiner() *Joiner {
	return &Joiner{
		pending:  make(map[joinKey]pendingCall),
		pendGone: make(map[pendEntry]bool),
	}
}

// Push ingests one record and appends every operation that becomes
// releasable to out, returning the extended slice. The release order is
// exactly the order Next would have yielded: Push and Next are the push
// and pull forms of the same machine. Push must not be called after
// Drain.
func (j *Joiner) Push(r *core.Record, out []*core.Op) []*core.Op {
	j.ingest(r)
	for j.ready.Len() > 0 && j.ready[0].op.T < j.horizon() {
		out = append(out, heap.Pop(&j.ready).(readyOp).op)
	}
	return out
}

// Drain ends the stream: the held ready operations and every
// still-unmatched call surface, appended to out in the order Next would
// have emitted them after EOF. The joiner is spent afterwards; its
// Stats are final.
func (j *Joiner) Drain(out []*core.Op) []*core.Op {
	if !j.drained {
		j.drain()
	}
	for j.ready.Len() > 0 {
		out = append(out, heap.Pop(&j.ready).(readyOp).op)
	}
	return out
}

// Pending reports the number of calls still awaiting replies.
func (j *Joiner) Pending() int { return len(j.pending) }

// StatsIfDrained reports the statistics a drain right now would leave:
// Stats() with every still-pending call counted as unmatched. It is
// the JoinStats counterpart of PendingOps and leaves the joiner
// untouched.
func (j *Joiner) StatsIfDrained() core.JoinStats {
	s := j.stats
	s.UnmatchedCalls += int64(len(j.pending))
	return s
}

// Held reports the number of completed operations held for reordering.
func (j *Joiner) Held() int { return j.ready.Len() }

// PendingOps simulates Drain without disturbing the joiner: it returns
// the operations an end-of-stream drain would emit right now — the held
// ready ops merged with the still-unmatched calls surfaced as
// unreplied operations — in the exact order Drain would yield them.
// The joiner's state and statistics are unchanged; unmatched calls
// produce freshly built ops while held ops are returned as is (they are
// read-only from here on either way). This is what makes a mid-stream
// snapshot finishable: snapshot the reducers, feed them PendingOps, and
// the result equals a batch run over every record pushed so far.
func (j *Joiner) PendingOps() []*core.Op {
	sim := make(opHeap, j.ready.Len(), j.ready.Len()+len(j.pending))
	copy(sim, j.ready)
	seq := j.seq
	for _, call := range j.unmatched() {
		seq++
		heap.Push(&sim, readyOp{op: core.FromPair(call, nil), seq: seq})
	}
	out := make([]*core.Op, 0, sim.Len())
	for sim.Len() > 0 {
		out = append(out, heap.Pop(&sim).(readyOp).op)
	}
	return out
}

// readyOp orders completed operations by call time; the completion
// sequence breaks ties deterministically.
type readyOp struct {
	op  *core.Op
	seq int64
}

type opHeap []readyOp

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, k int) bool {
	if h[i].op.T != h[k].op.T {
		return h[i].op.T < h[k].op.T
	}
	return h[i].seq < h[k].seq
}
func (h opHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(readyOp)) }
func (h *opHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type pendHeap []pendEntry

func (h pendHeap) Len() int           { return len(h) }
func (h pendHeap) Less(i, k int) bool { return h[i].t < h[k].t }
func (h pendHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i] }
func (h *pendHeap) Push(x any)        { *h = append(*h, x.(pendEntry)) }
func (h *pendHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
