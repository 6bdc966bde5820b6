package pipeline

import (
	"io"
	"sort"

	"repro/internal/core"
)

// Joiner matches call records to reply records by (client, port, xid),
// incrementally, and emits joined operations in call-time order. It is
// the library's only call/reply matcher. A reply matches the pending
// call with its key; a retransmitted call is dropped and the first
// one's time stands, as the paper's tracer did.
//
// An operation's time is its call's time, but the operation is only
// complete when the reply arrives, so completions surface out of order
// by up to the RPC latency. The joiner holds completed operations in a
// heap and releases one as soon as nothing earlier can still appear:
// the release horizon is the minimum of the latest record's time and
// the oldest still-pending call.
//
// Pending calls are admitted in record-time order, so they need no
// heap of their own: they sit in one ring sorted by call time, oldest at
// the head, with a map from (client, port, xid) to ring position. A
// reply clears its call's slot in place; the head skips cleared slots
// when the horizon is next computed, so in a time-ordered trace every
// slot is written once and passed once.
//
// A call whose reply was lost would pin that horizon forever — one
// dropped packet must not buffer the rest of a week-long trace — so a
// pending call older than MaxCallAge is expired early and surfaces as
// an unmatched operation right away instead of at end of stream.
// Memory is therefore bounded by the in-flight window plus one
// MaxCallAge of unmatched calls. The §4.1.4 loss statistics are
// those of a join holding the whole trace, except that a reply arriving
// more than MaxCallAge after its call counts as an orphan.
//
// Records should arrive in capture-time order. One that does not — its
// time is earlier than a record before it, as in a hand-edited,
// clock-skewed or foreign trace — is joined all the same: a
// late call is moved down the ring to its place in time order (cheap
// for the few slots of an in-flight window, linear in the ring for
// each such call otherwise), every Op keeps its record's own time, no
// operation is lost and the statistics are what sorted input gives. The
// horizon follows the latest record, backwards too, so what is then
// guaranteed about order is this: with the operations built from late
// calls set aside, the output is non-decreasing in T; a late call's
// operation may follow operations later than itself that were released
// before its record came.
type Joiner struct {
	src core.RecordSource
	// rec is the source's recycler when it pools its records; the
	// joiner is the point where a record's last field has been copied
	// into an Op, so it hands dead records back here.
	rec core.RecordRecycler

	// ring holds the calls admitted and not yet passed by head, at
	// positions head..tail-1 modulo its power-of-two length; slot times
	// never decrease from head to tail. pending maps each call still
	// awaiting its reply to its position.
	ring       []pendingCall
	head, tail uint64
	pending    map[joinKey]uint64

	ready   readyHeap
	seq     int64
	now     float64   // time of the latest record
	horizon float64   // operations earlier than this are released
	chunk   []core.Op // unused remainder of the current Op allocation
	drained bool
	stats   core.JoinStats

	// MaxCallAge is how long a call may wait for its reply before it
	// is given up as unmatched; 0 selects core.DefaultMaxCallAge. Real RPC
	// latencies are milliseconds, so the default changes the outcome
	// only on pathological traces.
	MaxCallAge float64
}

// opChunk is how many Ops the joiner allocates at a time. Nothing
// downstream keeps an *Op past the call that received it, so a chunk
// dies as a whole soon after its last operation is reduced; but one op
// waiting in a sparsely fed shard's batch keeps its whole chunk alive,
// so chunks stay small. At 64 (10 KiB) the joiner runs as fast as with
// larger chunks and about 8 % faster than at 32.
const opChunk = 64

type joinKey struct {
	client uint32
	port   uint16
	xid    uint32
}

// pendingCall is one ring slot: a call awaiting its reply, or, once rec
// is nil, a slot whose call was answered and that head will skip. t is
// the call's time, kept beside rec so that the slot stays in order after
// its record is gone.
type pendingCall struct {
	rec *core.Record
	t   float64
	k   joinKey
}

// NewJoiner wraps a time-ordered record source.
func NewJoiner(src core.RecordSource) *Joiner {
	j := NewPushJoiner()
	j.src = src
	j.rec, _ = src.(core.RecordRecycler)
	return j
}

// NewPushJoiner returns a joiner for push-mode use: the caller feeds
// records with Push and flushes with Drain. Next must not be called on
// a push-mode joiner (there is no underlying source to pull from).
func NewPushJoiner() *Joiner {
	return &Joiner{pending: make(map[joinKey]uint64)}
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
	return core.DefaultMaxCallAge
}

// Stats reports call/reply matching statistics; the §4.1.4 loss
// estimate is complete once Next has returned io.EOF.
func (j *Joiner) Stats() core.JoinStats { return j.stats }

// oldest returns the oldest call still awaiting its reply, moving head
// past the slots of answered calls, or nil when none is pending.
func (j *Joiner) oldest() *pendingCall {
	mask := uint64(len(j.ring) - 1)
	for j.head != j.tail {
		if pc := &j.ring[j.head&mask]; pc.rec != nil {
			return pc
		}
		j.head++
	}
	return nil
}

// admit places a call in the ring. Nearly always that is the tail; a
// call earlier than the ones before it is moved down to its place in
// time order, so the head stays the oldest pending call whatever the
// input.
func (j *Joiner) admit(r *core.Record, k joinKey) {
	if int(j.tail-j.head) == len(j.ring) {
		grown := make([]pendingCall, max(2*len(j.ring), 64))
		for p := j.head; p != j.tail; p++ {
			grown[p&uint64(len(grown)-1)] = j.ring[p&uint64(len(j.ring)-1)]
		}
		j.ring = grown
	}
	mask := uint64(len(j.ring) - 1)
	pos := j.tail
	for ; pos != j.head && j.ring[(pos-1)&mask].t > r.Time; pos-- {
		later := j.ring[(pos-1)&mask]
		j.ring[pos&mask] = later
		if later.rec != nil {
			j.pending[later.k] = pos
		}
	}
	j.ring[pos&mask] = pendingCall{rec: r, t: r.Time, k: k}
	j.pending[k] = pos
	j.tail++
}

// emit joins a call with its reply (nil for a call given up on) and
// queues the operation for release.
func (j *Joiner) emit(call, reply *core.Record) {
	if len(j.chunk) == 0 {
		j.chunk = make([]core.Op, opChunk)
	}
	op := &j.chunk[0]
	j.chunk = j.chunk[1:]
	op.SetPair(call, reply)
	j.seq++
	j.ready.push(readyOp{t: op.T, seq: j.seq, op: op})
}

// expireStale gives up on calls that have waited longer than
// MaxCallAge, surfacing them as unmatched operations so they stop
// pinning the release horizon.
func (j *Joiner) expireStale() {
	limit := j.now - j.maxCallAge()
	for pc := j.oldest(); pc != nil && pc.t <= limit; pc = j.oldest() {
		delete(j.pending, pc.k)
		j.stats.UnmatchedCalls++
		j.emit(pc.rec, nil)
		j.free(pc.rec)
		pc.rec = nil
	}
}

// ingest consumes one record, updating pending and ready state and the
// release horizon.
func (j *Joiner) ingest(r *core.Record) {
	j.now = r.Time
	j.expireStale()
	k := joinKey{r.Client, r.Port, r.XID}
	switch r.Kind {
	case core.KindCall:
		j.stats.Calls++
		if _, ok := j.pending[k]; ok {
			// Retransmission: keep the original call time, drop the
			// duplicate, as the paper's tracer did.
			j.free(r)
			break
		}
		j.admit(r, k)
	case core.KindReply:
		j.stats.Replies++
		pos, ok := j.pending[k]
		if !ok {
			j.stats.OrphanReplies++
			j.free(r)
			break
		}
		delete(j.pending, k)
		pc := &j.ring[pos&uint64(len(j.ring)-1)]
		j.stats.Matched++
		j.emit(pc.rec, r)
		j.free(pc.rec)
		pc.rec = nil
		j.free(r)
	}
	// Nothing earlier than this record, or than the oldest call still
	// waiting, can appear from here on.
	j.horizon = j.now
	if pc := j.oldest(); pc != nil && pc.t < j.now {
		j.horizon = pc.t
	}
}

// unmatched returns the calls still awaiting replies in the order an
// end-of-stream drain surfaces them: by (time, client, port, xid). drain
// and PendingOps both use it, which is what keeps a finished snapshot
// equal to a batch run.
func (j *Joiner) unmatched() []*core.Record {
	calls := make([]*core.Record, 0, len(j.pending))
	for _, pos := range j.pending {
		calls = append(calls, j.ring[pos&uint64(len(j.ring)-1)].rec)
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
		j.emit(call, nil)
		j.free(call)
	}
	j.pending = nil
	j.ring = nil
	j.drained = true
}

// Next implements OpSource.
func (j *Joiner) Next() (*core.Op, error) {
	for {
		if len(j.ready) > 0 && (j.drained || j.ready[0].t < j.horizon) {
			return j.ready.pop(), nil
		}
		if j.drained {
			return nil, io.EOF
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

// Push ingests one record and appends every operation that becomes
// releasable to out, returning the extended slice. The release order is
// exactly the order Next would have yielded: Push and Next are the push
// and pull forms of the same machine. Push must not be called after
// Drain.
func (j *Joiner) Push(r *core.Record, out []*core.Op) []*core.Op {
	j.ingest(r)
	for len(j.ready) > 0 && j.ready[0].t < j.horizon {
		out = append(out, j.ready.pop())
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
	for len(j.ready) > 0 {
		out = append(out, j.ready.pop())
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
func (j *Joiner) Held() int { return len(j.ready) }

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
	calls := j.unmatched()
	sim := make(readyHeap, len(j.ready), len(j.ready)+len(calls))
	copy(sim, j.ready)
	seq := j.seq
	for _, call := range calls {
		seq++
		sim.push(readyOp{t: call.Time, seq: seq, op: core.FromPair(call, nil)})
	}
	out := make([]*core.Op, 0, len(sim))
	for len(sim) > 0 {
		out = append(out, sim.pop())
	}
	return out
}

// readyOp is a completed operation waiting for the horizon to pass its
// call time t (op.T again, so that sifting the heap does not follow the
// pointers); the completion sequence breaks ties deterministically.
type readyOp struct {
	t   float64
	seq int64
	op  *core.Op
}

func (a readyOp) before(b readyOp) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// readyHeap is a binary min-heap of readyOp by (t, seq).
type readyHeap []readyOp

func (h *readyHeap) push(x readyOp) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest operation; the heap must not be
// empty.
func (h *readyHeap) pop() *core.Op {
	s := *h
	top, n := s[0].op, len(s)-1
	s[0], s[n] = s[n], readyOp{}
	s = s[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && s[child+1].before(s[child]) {
			child++
		}
		if child >= n || !s[child].before(s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return top
}
