package pipeline

import (
	"io"
	"maps"
	"slices"
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
// by up to the RPC latency. One ring holds that order: calls are
// admitted in record-time order, so they sit in a ring sorted by call
// time, oldest at the head, with a map from (client, port, xid) to ring
// position. A slot holds its call while the call waits and the joined
// operation once the reply lands; it then moves ahead of the waiting
// calls with the same call time, so equal call times leave in
// completion order. The head is released while it is complete and
// earlier than the latest record's time: nothing earlier can still
// appear. In a time-ordered trace every slot is written once and
// released once.
//
// A call whose reply was lost would hold the head forever — one
// dropped packet must not buffer the rest of a week-long trace — so a
// pending call older than MaxCallAge is expired early and completes as
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
// operation is lost and the statistics are what sorted input gives.
// Release follows the latest record's time, backwards too, so what is
// then guaranteed about order is this: with the operations built from
// late calls set aside, the output is non-decreasing in T; a late
// call's operation may follow operations later than itself that were
// released before its record came.
type Joiner struct {
	src core.RecordSource

	// ring holds the calls admitted and not yet released, at positions
	// head..tail-1 modulo its power-of-two length; slot times never
	// decrease from head to tail. pending maps each call still awaiting
	// its reply to its position.
	ring       []slot
	head, tail uint64
	pending    map[joinKey]uint64

	now     float64    // time of the latest record
	spare   []*core.Op // operations handed back by RecycleOp
	chunk   []core.Op  // unused remainder of the current Op allocation
	drained bool
	stats   core.JoinStats

	// MaxCallAge is how long a call may wait for its reply before it
	// is given up as unmatched; 0 selects core.DefaultMaxCallAge. Real RPC
	// latencies are milliseconds, so the default changes the outcome
	// only on pathological traces.
	MaxCallAge float64

	// Recycler, when set, gets back every record the joiner is done
	// with: the joiner is the point where a record's last field has
	// been copied into an Op, so each record it takes is recycled
	// exactly once, and by the end of Drain all of them are. NewJoiner
	// sets it to a source that recycles; a push-mode caller that owns
	// no reference to the records it pushes sets it to their source.
	// Recycle must not be called from two goroutines at once, so a
	// joiner whose Push runs on more than one goroutine is serialized
	// by its caller.
	Recycler core.RecordRecycler
}

// opChunk is how many Ops the joiner allocates at a time when no
// handed-back operation is spare. A caller that recycles every
// operation, as Live.FeedFrom does, brings the joiner to a steady state
// of a handful of ops in flight, so chunks are carved only while the
// in-flight window grows. One op kept by a caller that recycles nothing
// keeps its whole chunk alive, so chunks stay small. At 64 (9 KiB) the
// joiner runs as fast as with larger chunks and about 8 % faster than
// at 32.
const opChunk = 64

// joinKey is a call's (client, port, xid). Three uint32 fields leave no
// padding, so the pending map hashes the key as one block of memory.
type joinKey struct {
	client, xid, port uint32
}

func keyOf(r *core.Record) joinKey { return joinKey{r.Client, r.XID, uint32(r.Port)} }

// slot is one ring position: a call awaiting its reply, or, once call
// is nil, its joined operation awaiting release. t is the call's time,
// kept beside them so that ordering the ring follows no pointer.
type slot struct {
	t    float64
	call *core.Record
	op   *core.Op
}

// NewJoiner wraps a time-ordered record source.
func NewJoiner(src core.RecordSource) *Joiner {
	j := NewPushJoiner()
	j.src = src
	j.Recycler, _ = src.(core.RecordRecycler)
	return j
}

// NewPushJoiner returns a joiner for push-mode use: the caller feeds
// records with Push and flushes with Drain. Next must not be called on
// a push-mode joiner (there is no underlying source to pull from).
func NewPushJoiner() *Joiner {
	return &Joiner{pending: make(map[joinKey]uint64)}
}

// RecycleOp hands back an operation that Next, Push or Drain returned,
// once the caller holds no reference to it: the joiner will overwrite
// it with a later operation. An operation that is never handed back
// stays the caller's for good. RecycleOp must not run concurrently with
// the joiner's other methods.
func (j *Joiner) RecycleOp(op *core.Op) { j.spare = append(j.spare, op) }

// newOp returns an operation to fill: a handed-back one if there is
// one, else the next of the current chunk.
func (j *Joiner) newOp() *core.Op {
	if n := len(j.spare); n > 0 {
		op := j.spare[n-1]
		j.spare = j.spare[:n-1]
		return op
	}
	if len(j.chunk) == 0 {
		j.chunk = make([]core.Op, opChunk)
	}
	op := &j.chunk[0]
	j.chunk = j.chunk[1:]
	return op
}

// free hands a dead record back to a recycling source.
func (j *Joiner) free(r *core.Record) {
	if j.Recycler != nil {
		j.Recycler.Recycle(r)
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

// admit places a call in the ring. Nearly always that is the tail; a
// call earlier than the ones before it is moved down to its place in
// time order, so the ring stays sorted whatever the input.
func (j *Joiner) admit(r *core.Record, k joinKey) {
	if int(j.tail-j.head) == len(j.ring) {
		grown := make([]slot, max(2*len(j.ring), 64))
		for p := j.head; p != j.tail; p++ {
			grown[p&uint64(len(grown)-1)] = j.ring[p&uint64(len(j.ring)-1)]
		}
		j.ring = grown
	}
	mask := uint64(len(j.ring) - 1)
	pos := j.tail
	for ; pos != j.head && j.ring[(pos-1)&mask].t > r.Time; pos-- {
		j.shiftUp(pos - 1)
	}
	j.ring[pos&mask] = slot{t: r.Time, call: r}
	j.pending[k] = pos
	j.tail++
}

// shiftUp moves the slot at pos one position towards the tail, and its
// call's map entry with it.
func (j *Joiner) shiftUp(pos uint64) {
	mask := uint64(len(j.ring) - 1)
	s := j.ring[pos&mask]
	j.ring[(pos+1)&mask] = s
	if s.call != nil {
		j.pending[keyOf(s.call)] = pos + 1
	}
}

// complete joins the waiting call at pos with its reply (nil for a
// call given up on) and moves the operation ahead of the waiting calls
// with the same call time, which keeps equal call times in completion
// order.
func (j *Joiner) complete(pos uint64, reply *core.Record) {
	if reply != nil {
		j.stats.Matched++
	} else {
		j.stats.UnmatchedCalls++
	}
	mask := uint64(len(j.ring) - 1)
	call := j.ring[pos&mask].call
	delete(j.pending, keyOf(call))
	op := j.newOp()
	op.SetPair(call, reply)
	j.free(call)
	for ; pos != j.head; pos-- {
		if prev := j.ring[(pos-1)&mask]; prev.call == nil || prev.t != op.T {
			break
		}
		j.shiftUp(pos - 1)
	}
	j.ring[pos&mask] = slot{t: op.T, op: op}
}

// expireStale gives up on calls that have waited longer than
// MaxCallAge, completing them as unmatched operations so they stop
// holding the head.
func (j *Joiner) expireStale() {
	limit := j.now - j.maxCallAge()
	mask := uint64(len(j.ring) - 1)
	for p := j.head; p != j.tail && j.ring[p&mask].t <= limit; p++ {
		if j.ring[p&mask].call != nil {
			j.complete(p, nil)
		}
	}
}

// ingest consumes one record.
func (j *Joiner) ingest(r *core.Record) {
	j.now = r.Time
	j.expireStale()
	k := keyOf(r)
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
		if pos, ok := j.pending[k]; ok {
			j.complete(pos, r)
		} else {
			j.stats.OrphanReplies++
		}
		j.free(r)
	}
}

// drain completes the calls that never got replies, in deterministic
// order — by (time, client, port, xid) — once the stream has ended.
// Drain and PendingOps both run it, which is what keeps a finished
// snapshot equal to a batch run.
func (j *Joiner) drain() {
	calls := make([]*core.Record, 0, len(j.pending))
	for _, pos := range j.pending {
		calls = append(calls, j.ring[pos&uint64(len(j.ring)-1)].call)
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
	for _, call := range calls {
		j.complete(j.pending[keyOf(call)], nil)
	}
	j.drained = true
}

// release returns the head's operation and advances past it, or nil
// while the head waits for its reply or could still be preceded: until
// the stream has ended, only an operation earlier than the latest
// record is final.
func (j *Joiner) release() *core.Op {
	if j.head == j.tail {
		return nil
	}
	s := &j.ring[j.head&uint64(len(j.ring)-1)]
	if s.op == nil || (!j.drained && s.t >= j.now) {
		return nil
	}
	op := s.op
	*s = slot{}
	j.head++
	return op
}

// Next implements OpSource.
func (j *Joiner) Next() (*core.Op, error) {
	for {
		if op := j.release(); op != nil {
			return op, nil
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

// releaseAll appends every operation that release yields to out.
func (j *Joiner) releaseAll(out []*core.Op) []*core.Op {
	for op := j.release(); op != nil; op = j.release() {
		out = append(out, op)
	}
	return out
}

// Push ingests one record and appends every operation that becomes
// releasable to out, returning the extended slice. The release order is
// exactly the order Next would have yielded: Push and Next are the push
// and pull forms of the same machine. Push must not be called after
// Drain.
func (j *Joiner) Push(r *core.Record, out []*core.Op) []*core.Op {
	j.ingest(r)
	return j.releaseAll(out)
}

// Drain ends the stream: the held operations and every still-unmatched
// call surface, appended to out in the order Next would have emitted
// them after EOF. The joiner is spent afterwards; its Stats are final.
func (j *Joiner) Drain(out []*core.Op) []*core.Op {
	if !j.drained {
		j.drain()
	}
	return j.releaseAll(out)
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
func (j *Joiner) Held() int { return int(j.tail-j.head) - len(j.pending) }

// PendingOps returns the operations an end-of-stream drain would emit
// right now, in the order Drain would yield them, without disturbing
// the joiner: it drains a copy of the ring and map that has no
// recycler, so the joiner's records stay live and its state and
// statistics are unchanged. Every operation returned is a fresh copy
// that the joiner never reuses, held ones included, so a caller may
// read them while the joiner goes on and recycles the originals. This
// is what makes a mid-stream snapshot finishable: snapshot the
// reducers, feed them PendingOps, and the result equals a batch run
// over every record pushed so far.
func (j *Joiner) PendingOps() []*core.Op {
	c := &Joiner{ring: slices.Clone(j.ring), head: j.head, tail: j.tail, pending: maps.Clone(j.pending)}
	for p := c.head; p != c.tail; p++ {
		if s := &c.ring[p&uint64(len(c.ring)-1)]; s.op != nil {
			op := *s.op
			s.op = &op
		}
	}
	return c.Drain(make([]*core.Op, 0, c.tail-c.head))
}
