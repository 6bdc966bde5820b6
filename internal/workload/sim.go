// Package workload generates the two traced systems' traffic: CAMPUS
// (the university's central email environment: 10,000 accounts, POP and
// login servers, mailboxes, lock files, diurnal rhythm — scaled down by
// a configurable user count) and EECS (a CS-department home-directory
// server: metadata-dominated, write-heavy, browser caches, builds, log
// files).
//
// The generators drive simulated per-host NFS clients (with their
// caches and nfsiod pools) against a simulated server, emitting the
// trace records a perfectly positioned sniffer would capture. All
// randomness is seeded, so traces are reproducible.
package workload

import (
	"fmt"
	"math"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
)

// Sim is a minimal discrete-event simulator: schedule closures at
// absolute times, run until the horizon.
//
// It also puts the traffic its hosts emit into capture order. A host
// emits an operation's records (and, with a capture attached, its RPC
// messages) while the event that starts it runs, stamped with their
// wire times: at or after Now, but up to tens of minutes ahead of it
// when a session runs its steps inline, and out of order across hosts
// and nfsiod daemons. The simulator holds them in a second queue keyed
// by (wire time, emission order) and releases each once the clock
// passes its time, when nothing can be emitted before it any more; the
// end of Run releases the rest. So the sink sees records exactly in
// capture order, with their wire sizes, and packets are framed in that
// order too.
type Sim struct {
	// Now is the current simulation time in seconds.
	Now float64
	// End is the horizon; events at or past it are dropped.
	End float64

	q     queue[func(t float64)]
	out   order
	hosts []*client.Client
}

// newSim returns a simulator over [0, end) whose hosts' records go to
// sink in capture order.
func newSim(end float64, sink client.Sink) *Sim {
	return &Sim{End: end, out: order{sink: sink}}
}

// At schedules fn to run at time t. Events past the horizon are
// silently dropped; events in the past run at the current time.
func (s *Sim) At(t float64, fn func(t float64)) {
	if t >= s.End {
		return
	}
	if t < s.Now {
		t = s.Now
	}
	s.q.push(t, fn)
}

// Run processes events in time order until the queue empties or the
// horizon passes.
func (s *Sim) Run() {
	for len(s.q.items) > 0 {
		t, fn := s.q.pop()
		if t >= s.End {
			continue
		}
		s.out.release(t)
		s.Now = t
		fn(t)
	}
	s.Now = s.End
	s.out.release(math.Inf(1))
}

// order is the simulator's capture-order queue: what its hosts emit,
// waiting for the clock.
type order struct {
	sink client.Sink
	held queue[func(t float64)]
	// mark is the wire time of the last item released; an item below it
	// would leave out of order.
	mark float64
}

// Record implements client.Sink: the hosts' records enter here.
func (o *order) Record(rec *core.Record, wireSize int) {
	o.hold(rec.Time, func(float64) { o.sink.Record(rec, wireSize) })
}

// hold queues release to run when the clock passes t.
func (o *order) hold(t float64, release func(t float64)) {
	if t < o.mark {
		panic(fmt.Sprintf("workload: traffic at %.6f s emitted after %.6f s was released", t, o.mark))
	}
	o.held.push(t, release)
}

// release runs every held item below now, in (time, emission) order.
func (o *order) release(now float64) {
	for len(o.held.items) > 0 && o.held.items[0].t < now {
		t, fn := o.held.pop()
		o.mark = t
		fn(t)
	}
}

// newHost builds a client host whose records go through the order
// queue, and remembers it for capture.
func (s *Sim) newHost(cfg client.Config, srv *server.Server, serverIP uint32) *client.Client {
	cl := client.New(cfg, srv, serverIP, &s.out)
	s.hosts = append(s.hosts, cl)
	return cl
}

// heldTap passes a host's RPC messages through the order queue, and
// frames each on the wire tap when the queue releases it. IP ids and
// TCP sequence numbers so follow wire time.
type heldTap struct {
	out *order
	tap *client.WireTap
}

// Message implements client.Tap.
func (h heldTap) Message(t float64, proto byte, port uint16, fromClient bool, msg []byte) {
	h.out.hold(t, func(t float64) { h.tap.Message(t, proto, port, fromClient, msg) })
}

// capture attaches to every host a wire tap framing at mtu into sink,
// behind the order queue.
func (s *Sim) capture(sink client.PacketSink, mtu int) {
	for _, cl := range s.hosts {
		cl.EnableWireTap(heldTap{&s.out, client.NewWireTap(sink, cl.IP, cl.ServerIP, mtu)})
	}
}

// queue is a binary min-heap of values keyed by (time, insertion
// order), so equal times pop first in, first out.
type queue[V any] struct {
	items []entry[V]
	seq   int64
}

type entry[V any] struct {
	t   float64
	seq int64
	v   V
}

func (q *queue[V]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

func (q *queue[V]) push(t float64, v V) {
	q.seq++
	q.items = append(q.items, entry[V]{t, q.seq, v})
	for i := len(q.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

// pop removes and returns the first entry; the queue must not be empty.
func (q *queue[V]) pop() (float64, V) {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = entry[V]{}
	q.items = q.items[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q.items[i], q.items[c] = q.items[c], q.items[i]
		i = c
	}
	return top.t, top.v
}
