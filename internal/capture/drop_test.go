package capture

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rpc"
	"repro/internal/wire"
	"repro/internal/workload"
)

// campusCapture generates the capture `nfsgen -system campus -users 12
// -days 0.3 -pcap` writes, NFSv3 over TCP at the jumbo MTU, and lists
// the packets that are TCP segments carrying data.
func campusCapture(tb testing.TB) (pkts *packetBuf, data []int) {
	tb.Helper()
	pkts = &packetBuf{}
	gen := workload.NewCampus(workload.DefaultCampusConfig(12, 0.3, 20011021), &client.SliceSink{})
	gen.Capture(pkts, wire.JumboMTU)
	gen.Run()
	for i, p := range pkts.packets {
		if f, err := wire.Decode(p.data); err == nil && f.Proto == wire.ProtoTCP && len(f.Payload) > 0 {
			data = append(data, i)
		}
	}
	return pkts, data
}

// sniffWithout hands the sniffer every packet but those in drop.
func sniffWithout(pkts *packetBuf, drop map[int]bool) ([]*core.Record, Stats) {
	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	for i, p := range pkts.packets {
		if !drop[i] {
			s.HandlePacket(p.t, p.data)
		}
	}
	return got, s.Stats
}

// TestSnifferSkipsLostSegment drops one TCP data segment, the 50th of
// the CAMPUS capture. Exactly one record goes missing; every other
// record comes out equal to the full capture's in every field but time,
// which is no earlier: a record held behind the hole takes the time of
// the packet that releases it. The sniffer's loss estimate equals the
// join's over the records it wrote.
func TestSnifferSkipsLostSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a CAMPUS capture")
	}
	pkts, data := campusCapture(t)
	want, _ := sniffWithout(pkts, nil)
	got, st := sniffWithout(pkts, map[int]bool{data[49]: true})
	if len(got) != len(want)-1 {
		t.Fatalf("%d records, want %d: one lost", len(got), len(want)-1)
	}
	times := make(map[string][]float64) // a full-capture record without its time → its times
	for _, r := range want {
		k := *r
		k.Time = 0
		times[k.Marshal()] = append(times[k.Marshal()], r.Time)
	}
	j := pipeline.NewPushJoiner()
	for _, r := range got {
		k := *r
		k.Time = 0
		ts := times[k.Marshal()]
		if len(ts) == 0 || r.Time < ts[0] {
			t.Fatalf("record %s: full-capture times %v", r.Marshal(), ts)
		}
		times[k.Marshal()] = ts[1:]
		j.Push(r, nil)
	}
	j.Drain(nil)
	if est, join := st.LossEstimate(), j.Stats().LossEstimate(); est != join || est == 0 {
		t.Errorf("sniffer estimates %v of the messages lost, the join over its records %v", est, join)
	}
}

// TestSnifferDropSweep drops seeded shares of the CAMPUS capture's data
// segments. Each message fits one segment, so the sniffer must account
// for every message it was given, as a call, a reply or an orphan;
// fewer records come out as more is dropped, and the loss estimate
// stays within a quarter point of the share dropped.
func TestSnifferDropSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a CAMPUS capture")
	}
	pkts, data := campusCapture(t)
	for _, i := range data {
		f, _ := wire.Decode(pkts.packets[i].data)
		if n, last, err := rpc.ParseFragmentHeader(f.Payload, 0); err != nil || !last || 4+n != len(f.Payload) {
			t.Fatalf("packet %d does not carry exactly one whole record", i)
		}
	}
	records, _ := sniffWithout(pkts, nil)
	prev := len(records)
	for _, share := range []float64{0.001, 0.01, 0.05} {
		rng := rand.New(rand.NewSource(1))
		drop := make(map[int]bool)
		for _, i := range data {
			if rng.Float64() < share {
				drop[i] = true
			}
		}
		got, st := sniffWithout(pkts, drop)
		if n := st.Calls + st.Replies + st.OrphanReplies; n != int64(len(data)-len(drop)) {
			t.Errorf("share %v: %d messages accounted for, %d sent", share, n, len(data)-len(drop))
		}
		if len(got) >= prev {
			t.Errorf("share %v: %d records, %d at a smaller share", share, len(got), prev)
		}
		prev = len(got)
		lost := float64(len(drop)) / float64(len(data))
		if est := st.LossEstimate(); math.Abs(est-lost) > 0.0025 {
			t.Errorf("share %v: loss estimated %.4f, %.4f dropped", share, est, lost)
		}
		t.Logf("dropped %d of %d (%.3f%%): %d records, loss estimate %.3f%%", len(drop), len(data), 100*lost, len(got), 100*st.LossEstimate())
	}
}
