package pipeline

import (
	"cmp"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
)

// testCallAge is the MaxCallAge the generated streams are joined with:
// short enough that their time steps make calls expire.
const testCallAge = 4.0

// joinStream turns fuzz bytes into a record stream, two bytes a record.
// The first byte picks the action and the client, the second the time
// step and which outstanding call the action concerns:
//
//	action 0-2  a call with a fresh xid
//	       3    a retransmission of an outstanding call
//	       4-5  the reply to an outstanding call
//	       6    a reply whose call was never captured
//	       7    a call reusing the xid of the call answered last
//	step   0    none (equal timestamps)
//	       1-13 a quarter second each
//	       14   past testCallAge, so everything outstanding expires
//	       15   backwards by 1.5 s: this record and those after it are late
//
// Calls left outstanding at the end are the lost replies. Every call
// record carries its index in Offset, which makes the operations of a
// stream distinguishable, and isLate reports for that index whether the
// call's time was earlier than some record before it.
func joinStream(data []byte) (records []*core.Record, isLate map[uint64]bool) {
	type key struct {
		client, xid uint32
	}
	var open []key
	var closed key
	isLate = make(map[uint64]bool)
	fhs := []core.FH{core.InternFH("aa"), core.InternFH("bb"), core.InternFH("cc")}
	now, latest := 10.0, 10.0
	nextXID := uint32(100)
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		switch step := b & 15; {
		case step == 15:
			now -= 1.5
		case step == 14:
			now += testCallAge + 1
		case step < 14:
			now += float64(step) * 0.25
		}
		k := key{client: 1 + uint32(a>>3&1), xid: nextXID}
		pick := int(b >> 4)
		r := &core.Record{Time: now, Kind: core.KindCall, Port: 700, Proc: core.ProcRead, Version: 3}
		switch action := a & 7; {
		case action == 3 && len(open) > 0:
			k = open[pick%len(open)]
		case action == 4 || action == 5:
			r.Kind = core.KindReply
			if len(open) > 0 {
				n := pick % len(open)
				k, closed = open[n], open[n]
				open = append(open[:n], open[n+1:]...)
			}
		case action == 6:
			r.Kind = core.KindReply
		case action == 7 && closed.xid != 0:
			k = closed
			open = append(open, k)
		default:
			open = append(open, k)
		}
		nextXID++
		r.Client, r.XID = k.client, k.xid
		if r.Kind == core.KindCall {
			r.FH = fhs[int(k.xid)%len(fhs)]
			r.Offset = uint64(len(records))
			r.Count = 8192
			isLate[r.Offset] = now < latest
		} else {
			r.RCount = 8192
			r.Size = uint64(len(records))
		}
		latest = max(latest, now)
		records = append(records, r)
	}
	return records, isLate
}

// joinOracle is the reference the Joiner is held to: a join that holds
// the whole trace, and so an independent statement of what the Joiner
// must produce when no call expires. Match by (client, port, xid) in
// record order, drop retransmissions, append the calls left over by
// (client, port, xid), and stable-sort everything by call time.
func joinOracle(records []*core.Record) ([]*core.Op, core.JoinStats) {
	var stats core.JoinStats
	var ops []*core.Op
	pending := make(map[joinKey]*core.Record)
	for _, r := range records {
		k := joinKey{r.Client, r.Port, r.XID}
		switch call, ok := pending[k]; {
		case r.Kind == core.KindCall:
			stats.Calls++
			if !ok {
				pending[k] = r
			}
		case !ok:
			stats.Replies++
			stats.OrphanReplies++
		default:
			stats.Replies++
			stats.Matched++
			delete(pending, k)
			ops = append(ops, core.FromPair(call, r))
		}
	}
	var lost []*core.Record
	for _, call := range pending {
		lost = append(lost, call)
	}
	id := func(r *core.Record) []uint32 { return []uint32{r.Client, uint32(r.Port), r.XID} }
	slices.SortFunc(lost, func(a, b *core.Record) int { return slices.Compare(id(a), id(b)) })
	for _, call := range lost {
		stats.UnmatchedCalls++
		ops = append(ops, core.FromPair(call, nil))
	}
	slices.SortStableFunc(ops, func(a, b *core.Op) int { return cmp.Compare(a.T, b.T) })
	return ops, stats
}

func pullAll(t testing.TB, records []*core.Record, age float64) ([]*core.Op, core.JoinStats) {
	t.Helper()
	j := NewJoiner(&core.SliceSource{Records: records})
	j.MaxCallAge = age
	var ops []*core.Op
	for {
		op, err := j.Next()
		if err == io.EOF {
			return ops, j.Stats()
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
}

func sameOps(t *testing.T, what string, got, want []*core.Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops, want %d", what, len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("%s: op %d differs:\n got %+v\nwant %+v", what, i, *got[i], *want[i])
		}
	}
}

// checkJoiner holds one record stream against everything the joiner
// promises about it; cut is where the mid-stream snapshot is taken.
func checkJoiner(t *testing.T, records []*core.Record, isLate map[uint64]bool, cut int) {
	t.Helper()
	pull, stats := pullAll(t, records, testCallAge)

	// Push and Drain are the same machine as Next, and PendingOps is a
	// drain that did not happen: the operations released by the cut plus
	// PendingOps are what a joiner fed only that prefix emits, and the
	// joiner carries on as if it had not been asked.
	pj := NewPushJoiner()
	pj.MaxCallAge = testCallAge
	var push []*core.Op
	for i, r := range records {
		if i == cut {
			prefix, prefixStats := pullAll(t, records[:cut], testCallAge)
			sameOps(t, "released + PendingOps vs joined prefix", append(push[:len(push):len(push)], pj.PendingOps()...), prefix)
			if got := pj.StatsIfDrained(); got != prefixStats {
				t.Fatalf("StatsIfDrained at %d = %+v, want %+v", cut, got, prefixStats)
			}
		}
		push = pj.Push(r, push)
	}
	push = pj.Drain(push)
	sameOps(t, "push vs pull", push, pull)
	if pj.Stats() != stats {
		t.Fatalf("push stats %+v, pull stats %+v", pj.Stats(), stats)
	}
	if pj.Pending() != 0 || pj.Held() != 0 {
		t.Fatalf("drained joiner still has %d pending, %d held", pj.Pending(), pj.Held())
	}

	// Order: non-decreasing in T once the late calls' operations are set
	// aside, which in a time-sorted stream is all of them.
	var calls, replies, replied, unreplied int64
	last := -1.0
	for i, op := range pull {
		if op.Replied {
			replied++
		} else {
			unreplied++
		}
		if isLate[op.Offset] {
			continue
		}
		if op.T < last {
			t.Fatalf("op %d at T=%v follows T=%v", i, op.T, last)
		}
		last = op.T
	}

	// Conservation: every call is matched, given up on, or a dropped
	// retransmission; every reply is matched or an orphan.
	for _, r := range records {
		if r.Kind == core.KindCall {
			calls++
		} else {
			replies++
		}
	}
	dropped := stats.Calls - stats.Matched - stats.UnmatchedCalls
	if stats.Calls != calls || stats.Replies != replies || stats.Matched != replied ||
		stats.UnmatchedCalls != unreplied || dropped < 0 ||
		stats.Replies != stats.Matched+stats.OrphanReplies {
		t.Fatalf("stats %+v do not add up: %d calls, %d replies, %d replied ops, %d unreplied ops",
			stats, calls, replies, replied, unreplied)
	}

	// With no call expiring the joiner is the oracle: the same
	// statistics and the same operations (as multisets: the oracle puts
	// a late call's operation in its place, the joiner cannot).
	want, wantStats := joinOracle(records)
	got, gotStats := pullAll(t, records, 1e300)
	if gotStats != wantStats {
		t.Fatalf("stats without expiry %+v, oracle %+v", gotStats, wantStats)
	}
	count := make(map[core.Op]int)
	for _, op := range want {
		count[*op]++
	}
	for _, op := range got {
		count[*op]--
	}
	for op, n := range count {
		if n != 0 {
			t.Fatalf("op %+v: the oracle has it %+d times more than the joiner", op, n)
		}
	}
}

// TestJoinerCases pins the matching rules on hand-built streams.
func TestJoinerCases(t *testing.T) {
	rec := func(tm float64, kind byte, client, xid uint32) *core.Record {
		return &core.Record{Time: tm, Kind: kind, Client: client, Port: 700, XID: xid, Proc: core.ProcRead}
	}
	call, reply := byte(core.KindCall), byte(core.KindReply)
	type op struct {
		t       float64
		client  uint32
		replied bool
	}
	for name, c := range map[string]struct {
		records []*core.Record
		stats   core.JoinStats
		ops     []op
	}{
		"pair": {[]*core.Record{rec(1, call, 1, 7), rec(1.1, reply, 1, 7)},
			core.JoinStats{Calls: 1, Replies: 1, Matched: 1}, []op{{1, 1, true}}},
		"lost reply": {[]*core.Record{rec(1, call, 1, 7)},
			core.JoinStats{Calls: 1, UnmatchedCalls: 1}, []op{{1, 1, false}}},
		"orphan reply": {[]*core.Record{rec(1, reply, 1, 7)},
			core.JoinStats{Replies: 1, OrphanReplies: 1}, nil},
		// A retransmission is dropped and the first call's time stands.
		"retransmission": {[]*core.Record{rec(1, call, 1, 7), rec(2, call, 1, 7), rec(2.1, reply, 1, 7)},
			core.JoinStats{Calls: 2, Replies: 1, Matched: 1}, []op{{1, 1, true}}},
		// One xid from two clients must not cross-match.
		"two clients": {[]*core.Record{rec(1, call, 1, 7), rec(1, call, 2, 7), rec(1.1, reply, 1, 7)},
			core.JoinStats{Calls: 2, Replies: 1, Matched: 1, UnmatchedCalls: 1}, []op{{1, 1, true}, {1, 2, false}}},
	} {
		ops, stats := pullAll(t, c.records, 0)
		if stats != c.stats {
			t.Errorf("%s: stats %+v, want %+v", name, stats, c.stats)
		}
		var got []op
		for _, o := range ops {
			got = append(got, op{o.T, o.Client, o.Replied})
		}
		if !slices.Equal(got, c.ops) {
			t.Errorf("%s: ops %+v, want %+v", name, got, c.ops)
		}
	}
}

// FuzzJoinerEquivalence drives generated streams — duplicate xids, lost
// calls, lost replies, replies later than MaxCallAge, equal timestamps,
// time-sorted unless the input asks for a backward step — through the
// pull, push and snapshot forms of the joiner. The seeds are the corpus
// under testdata/fuzz/FuzzJoinerEquivalence, one file per case named.
func FuzzJoinerEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, isLate := joinStream(data)
		cut := 0
		if len(data) > 0 && len(records) > 0 {
			cut = int(data[0]) % len(records)
		}
		checkJoiner(t, records, isLate, cut)
	})
}

// TestJoinerLateRecords pins what the joiner does with input that breaks
// its precondition: records whose time is earlier than a record before
// them must not panic, lose an operation or unbalance the statistics,
// and only the late calls' operations may come out of order.
func TestJoinerLateRecords(t *testing.T) {
	for name, data := range map[string][]byte{
		// A call from 1.5 s ago arrives while two later calls wait, so it
		// is moved below them in the ring; replies in reverse order.
		"below-waiting-calls": {0, 4, 0, 4, 0, 15, 4, 33, 4, 17, 4, 1},
		// A late burst: call, reply, call, reply, all behind the clock,
		// between on-time traffic of the other client.
		"burst": {0, 8, 4, 1, 8, 15, 12, 1, 0, 6, 8, 15, 4, 1, 12, 1},
		// The clock steps back and a call then outlives MaxCallAge.
		"expiry": {0, 1, 0, 15, 1, 15, 0, 14, 4, 0, 0, 15, 5, 14, 0, 1},
		// Every record earlier than the one before.
		"descending": {0, 15, 1, 15, 2, 15, 0, 15, 4, 47, 5, 15, 4, 15, 6, 15},
	} {
		t.Run(name, func(t *testing.T) {
			records, isLate := joinStream(data)
			late := 0
			for _, l := range isLate {
				if l {
					late++
				}
			}
			if late == 0 {
				t.Fatal("stream has no late call")
			}
			for cut := range records {
				checkJoiner(t, records, isLate, cut)
			}
		})
	}
}

// pullJoin and pushJoin run a whole trace through the joiner's two
// forms and drop the operations; BenchmarkJoiner times them and
// TestJoinerAllocations counts their allocations.
func pullJoin(records []*core.Record) core.JoinStats {
	j := NewJoiner(&core.SliceSource{Records: records})
	for {
		if _, err := j.Next(); err != nil {
			return j.Stats()
		}
	}
}

func pushJoin(records []*core.Record) core.JoinStats {
	j := NewPushJoiner()
	var buf []*core.Op
	for _, r := range records {
		buf = j.Push(r, buf[:0])
	}
	j.Drain(buf[:0])
	return j.Stats()
}

// TestJoinerAllocations pins the joiner's steady state: it runs at about
// one allocation per hundred records (Op chunks and the growth of its
// ring, map and heap), and 1.1 per record is the budget the benchmark's
// pipeline.join_allocs_per_rec holds it to.
func TestJoinerAllocations(t *testing.T) {
	records := genRecords(t, 0.5)
	for name, join := range map[string]func([]*core.Record) core.JoinStats{"pull": pullJoin, "push": pushJoin} {
		perRec := testing.AllocsPerRun(5, func() { join(records) }) / float64(len(records))
		t.Logf("%s: %.3f allocations per record over %d records", name, perRec, len(records))
		if perRec > 1.1 {
			t.Errorf("%s joiner: %.2f allocations per record, want at most 1.1", name, perRec)
		}
	}
}
