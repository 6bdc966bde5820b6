package workload

import (
	"math/rand"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pipeline"
)

func TestSimOrdersEvents(t *testing.T) {
	s := &Sim{End: 100}
	var got []float64
	s.At(5, func(tt float64) { got = append(got, tt) })
	s.At(1, func(tt float64) { got = append(got, tt) })
	s.At(3, func(tt float64) {
		got = append(got, tt)
		s.At(4, func(tt float64) { got = append(got, tt) })
	})
	s.At(200, func(tt float64) { t.Error("past-horizon event ran") })
	s.Run()
	want := []float64{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSimDeterministicTieBreak(t *testing.T) {
	run := func() []int {
		s := &Sim{End: 10}
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			s.At(1.0, func(float64) { order = append(order, i) })
		}
		s.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-break order not deterministic")
		}
	}
}

// TestSimReleasesInCaptureOrder checks the capture-order queue: an
// item leaves once the clock passes its time, equal times leave in
// emission order, wire sizes reach the sink, the end of Run releases
// the rest (past the horizon too), and an emit below what has been
// released panics.
func TestSimReleasesInCaptureOrder(t *testing.T) {
	type out struct {
		t    float64
		xid  uint32
		size int
	}
	var got []out
	s := newSim(100, client.FuncSink(func(r *core.Record, size int) {
		got = append(got, out{r.Time, r.XID, size})
	}))
	emit := func(t float64, xid uint32) { s.out.Record(&core.Record{Time: t, XID: xid}, 100+int(xid)) }
	s.At(1, func(float64) {
		emit(5, 1)
		emit(2, 2)
		emit(5, 3)
		emit(2, 4)
		emit(1, 5) // at the clock: held until it passes
	})
	s.At(3, func(float64) {
		if len(got) != 3 || got[0].xid != 5 || got[1].xid != 2 || got[2].xid != 4 {
			t.Errorf("released by t=3: %+v, want xids 5, 2, 4", got)
		}
		emit(3, 6)
		emit(150, 7)
	})
	s.At(5, func(float64) { emit(5, 8) })
	s.Run()
	want := []out{{1, 5, 105}, {2, 2, 102}, {2, 4, 104}, {3, 6, 106}, {5, 1, 101}, {5, 3, 103}, {5, 8, 108}, {150, 7, 107}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("an emit below the released watermark did not panic")
		}
	}()
	late := newSim(100, client.FuncSink(func(*core.Record, int) {}))
	late.At(1, func(float64) { late.out.Record(&core.Record{Time: 4}, 0) })
	late.At(6, func(float64) { late.out.Record(&core.Record{Time: 3.5}, 0) })
	late.Run()
}

func TestHourOfWeekAndPeak(t *testing.T) {
	if HourOfWeek(0) != 0 {
		t.Fatal("epoch not hour 0")
	}
	if HourOfWeek(Day+10*Hour) != 34 {
		t.Fatalf("monday 10am = %d", HourOfWeek(Day+10*Hour))
	}
	// Sunday 10am is not peak; Monday 10am is; Monday 8am is not;
	// Friday 5pm is; Saturday noon is not.
	cases := []struct {
		t    float64
		want bool
	}{
		{10 * Hour, false},
		{Day + 10*Hour, true},
		{Day + 8*Hour, false},
		{5*Day + 17*Hour, true},
		{5*Day + 18*Hour, false},
		{6*Day + 12*Hour, false},
	}
	for _, c := range cases {
		if IsPeak(c.t) != c.want {
			t.Errorf("IsPeak(%v) = %v", c.t, !c.want)
		}
	}
}

func TestDiurnalCurveShape(t *testing.T) {
	c := NewDiurnalCurve(0.4)
	// Monday 3am vs Monday 11am.
	if c.Weight(Day+3*Hour) >= c.Weight(Day+11*Hour) {
		t.Fatal("night not quieter than day")
	}
	// Saturday 11am below Monday 11am.
	if c.Weight(6*Day+11*Hour) >= c.Weight(Day+11*Hour) {
		t.Fatal("weekend not damped")
	}
	if c.DailySum() <= 0 {
		t.Fatal("daily sum")
	}
}

func TestPoissonScheduleRateAndModulation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	curve := NewDiurnalCurve(0.4)
	var times []float64
	// 200/day over 7 days.
	PoissonSchedule(rng, curve, 200, 0, Week, func(tt float64) { times = append(times, tt) })
	if len(times) < 800 || len(times) > 1500 {
		t.Fatalf("%d events for ~200/weekday over a week", len(times))
	}
	// Peak hours should hold far more events than 0–6am.
	night, peak := 0, 0
	for _, tt := range times {
		h := HourOfWeek(tt) % 24
		if h < 6 {
			night++
		}
		if IsPeak(tt) {
			peak++
		}
	}
	if peak < 4*night {
		t.Fatalf("diurnal modulation weak: peak=%d night=%d", peak, night)
	}
	// Times are sorted.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("unsorted schedule")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	below := 0
	n := 20000
	for i := 0; i < n; i++ {
		if LogNormal(rng, 1000, 1.0) < 1000 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median off: %.3f below", frac)
	}
}

// joined runs a generator's records through the streaming joiner, as
// every tool that reads its trace does.
func joined(t *testing.T, run func(client.Sink)) []*core.Op {
	t.Helper()
	j := pipeline.NewPushJoiner()
	var ops []*core.Op
	run(client.FuncSink(func(r *core.Record, _ int) { ops = j.Push(r, ops) }))
	ops = j.Drain(ops)
	if stats := j.Stats(); stats.OrphanReplies != 0 {
		t.Fatalf("orphan replies in lossless run: %+v", stats)
	}
	return ops
}

// generateCampus runs a small CAMPUS window and joins the records.
func generateCampus(t *testing.T, users int, days float64) ([]*core.Op, *Campus) {
	t.Helper()
	var camp *Campus
	ops := joined(t, func(sink client.Sink) {
		camp = NewCampus(DefaultCampusConfig(users, days, 12345), sink)
		camp.Run()
	})
	return ops, camp
}

func generateEECS(t *testing.T, clients int, days float64) ([]*core.Op, *EECS) {
	t.Helper()
	var sys *EECS
	ops := joined(t, func(sink client.Sink) {
		sys = NewEECS(DefaultEECSConfig(clients, days, 54321), sink)
		sys.Run()
	})
	return ops, sys
}

func mix(ops []*core.Op) (reads, writes, meta int64, rbytes, wbytes uint64) {
	for _, op := range ops {
		switch {
		case op.IsRead():
			reads++
			rbytes += op.Bytes()
		case op.IsWrite():
			writes++
			wbytes += op.Bytes()
		default:
			meta++
		}
	}
	return
}

func TestCampusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, camp := generateCampus(t, 4, 2)
	if len(ops) < 5000 {
		t.Fatalf("only %d ops generated", len(ops))
	}
	reads, writes, meta, rbytes, wbytes := mix(ops)

	// CAMPUS is read-dominated: R/W byte ratio ≈ 3 (accept 1.5–6 at
	// this scale), op ratio ≈ 3.
	byteRatio := float64(rbytes) / float64(wbytes)
	if byteRatio < 1.5 || byteRatio > 6 {
		t.Errorf("read/write byte ratio %.2f, want ≈3", byteRatio)
	}
	opRatio := float64(reads) / float64(writes)
	if opRatio < 1.5 || opRatio > 6 {
		t.Errorf("read/write op ratio %.2f, want ≈3", opRatio)
	}
	// Most calls are for data (Table 1).
	dataFrac := float64(reads+writes) / float64(len(ops))
	if dataFrac < 0.6 {
		t.Errorf("data fraction %.2f, want >0.6", dataFrac)
	}
	_ = meta

	// Lock-file dominance (Table 1: ~50% of files accessed are mailbox
	// locks): count distinct file instances in a peak-hour window —
	// every lock create is a fresh inode.
	winFrom, winTo := Day+10*Hour, Day+11*Hour
	instances := map[core.FH]bool{}
	lockInst := map[core.FH]bool{}
	for _, op := range ops {
		if op.T < winFrom || op.T >= winTo {
			continue
		}
		fh := op.FH
		if op.Proc == core.ProcCreate && op.NewFH != 0 {
			fh = op.NewFH
		}
		if op.Proc == core.ProcLookup || op.IsMetadata() && fh == 0 {
			continue
		}
		if fh == 0 {
			continue
		}
		instances[fh] = true
		if op.Name == "inbox.lock" {
			lockInst[fh] = true
		}
	}
	if len(instances) == 0 {
		t.Fatal("no file instances in the peak window")
	}
	lockFrac := float64(len(lockInst)) / float64(len(instances))
	if lockFrac < 0.3 {
		t.Errorf("lock files are %.0f%% of file instances, want ≈50%%", lockFrac*100)
	}

	// Nearly all read bytes come from inboxes (>95% in the paper).
	inboxFHs := map[core.FH]bool{}
	for _, u := range camp.users {
		inboxFHs[core.InternFH(u.inboxFH.String())] = true
	}
	var inboxRead uint64
	for _, op := range ops {
		if op.IsRead() && inboxFHs[op.FH] {
			inboxRead += op.Bytes()
		}
	}
	if frac := float64(inboxRead) / float64(rbytes); frac < 0.85 {
		t.Errorf("inbox read fraction %.2f, want >0.85", frac)
	}
}

func TestCampusDiurnalLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateCampus(t, 3, 3) // Sun, Mon, Tue
	// Monday 10:00–11:00 must be much busier than Monday 03:00–04:00.
	count := func(from, to float64) int {
		n := 0
		for _, op := range ops {
			if op.T >= from && op.T < to {
				n++
			}
		}
		return n
	}
	night := count(Day+3*Hour, Day+4*Hour)
	morning := count(Day+10*Hour, Day+11*Hour)
	if morning < 3*night {
		t.Fatalf("diurnal shape weak: night=%d morning=%d", night, morning)
	}
}

func TestCampusZeroLengthLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateCampus(t, 3, 1)
	// Lock files are created and removed; they must never be written.
	lockFHs := map[core.FH]bool{}
	for _, op := range ops {
		if op.Proc == core.ProcCreate && op.Name == "inbox.lock" && op.NewFH != 0 {
			lockFHs[op.NewFH] = true
		}
	}
	if len(lockFHs) == 0 {
		t.Fatal("no lock creations observed")
	}
	for _, op := range ops {
		if op.IsWrite() && lockFHs[op.FH] {
			t.Fatal("a lock file was written")
		}
	}
	// Creates and removes of locks roughly balance.
	creates, removes := 0, 0
	for _, op := range ops {
		if op.Name == "inbox.lock" {
			switch op.Proc {
			case core.ProcCreate:
				creates++
			case core.ProcRemove:
				removes++
			}
		}
	}
	if removes == 0 || creates == 0 {
		t.Fatalf("lock churn: %d creates %d removes", creates, removes)
	}
	if float64(removes) < 0.8*float64(creates) {
		t.Fatalf("locks leak: %d creates, %d removes", creates, removes)
	}
}

func TestEECSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateEECS(t, 3, 2)
	if len(ops) < 5000 {
		t.Fatalf("only %d ops", len(ops))
	}
	reads, writes, meta, rbytes, wbytes := mix(ops)

	// EECS: metadata dominates (75% in Table 2 arithmetic).
	metaFrac := float64(meta) / float64(len(ops))
	if metaFrac < 0.5 {
		t.Errorf("metadata fraction %.2f, want >0.5", metaFrac)
	}
	// Writes outnumber reads (ops ratio 0.69; accept <1.2).
	opRatio := float64(reads) / float64(writes)
	if opRatio > 1.2 {
		t.Errorf("read/write op ratio %.2f, want <1 (write-dominated)", opRatio)
	}
	// Byte ratio below 1 too (0.56 in the paper).
	byteRatio := float64(rbytes) / float64(wbytes)
	if byteRatio > 1.5 {
		t.Errorf("read/write byte ratio %.2f, want ≈0.6", byteRatio)
	}
}

func TestEECSProcMix(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateEECS(t, 2, 1)
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.Proc.String()]++
	}
	// The attribute procedures together dominate.
	attr := counts["lookup"] + counts["getattr"] + counts["access"]
	if float64(attr) < 0.4*float64(len(ops)) {
		t.Errorf("attribute calls %.0f%%, want ≥40%%", 100*float64(attr)/float64(len(ops)))
	}
	// Applet churn appears.
	if counts["remove"] == 0 || counts["create"] == 0 {
		t.Error("no create/remove churn")
	}
	// Some clients speak v2.
	v2 := false
	for _, op := range ops {
		if op.Version == nfs.V2 {
			v2 = true
			break
		}
	}
	if !v2 {
		t.Error("no NFSv2 traffic in the mix")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	gen := func() []*core.Record {
		sink := &client.SliceSink{}
		NewCampus(DefaultCampusConfig(2, 0.25, 777), sink).Run()
		return sink.Records
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Marshal() != b[i].Marshal() {
			t.Fatalf("record %d differs:\n%s\n%s", i, a[i].Marshal(), b[i].Marshal())
		}
	}
}
