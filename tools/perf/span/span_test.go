package span

import "testing"

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		// Two overlapping children inside the root cover [10,60] once.
		{Name: "a", StartNS: 10, EndNS: 50, Parent: 0},
		{Name: "b", StartNS: 40, EndNS: 60, Parent: 0},
		// A grandchild inside a.
		{Name: "a1", StartNS: 20, EndNS: 30, Parent: 1},
		// A child that sticks out past the root is clipped to it.
		{Name: "c", StartNS: 90, EndNS: 130, Parent: 0},
		// A replayed stage: logically part of b, run after it on the same
		// input, so its whole duration comes off b.
		{Name: "b-replayed", StartNS: 200, EndNS: 215, Parent: 2},
		// A replayed child longer than its parent cannot push self below 0.
		{Name: "tiny", StartNS: 300, EndNS: 305, Parent: -1},
		{Name: "tiny-replayed", StartNS: 400, EndNS: 450, Parent: 6},
	}
	want := []int64{
		100 - 50 - 10, // root: [10,60] and [90,100]
		40 - 10,       // a minus a1
		20 - 15,       // b minus its replayed stage
		10, 40, 15, 0, 50,
	}
	got := SelfNS(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSharesByPass(t *testing.T) {
	spans := []Span{
		{Name: "replay", Pass: 0, StartNS: 0, EndNS: 100, Parent: -1, Units: 10},
		{Name: "decode", Pass: 0, StartNS: 0, EndNS: 30, Parent: 0, Units: 10},
		{Name: "decode", Pass: 0, StartNS: 30, EndNS: 60, Parent: 0, Units: 10},
		{Name: "join", Pass: 0, StartNS: 60, EndNS: 90, Parent: 0, Units: 5},
		{Name: "inproc", Pass: 1, StartNS: 100, EndNS: 1100, Parent: -1, Units: 10},
	}
	rows := Shares(spans, 0)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (pass 1 excluded): %+v", len(rows), rows)
	}
	if rows[0].Name != "decode" || rows[0].Calls != 2 || rows[0].Units != 20 || rows[0].SelfNS != 60 || rows[0].Share != 0.6 {
		t.Errorf("decode row = %+v", rows[0])
	}
	if rows[2].Name != "replay" || rows[2].SelfNS != 10 || rows[2].TotalNS != 100 {
		t.Errorf("replay row = %+v", rows[2])
	}
	if got := spans[3].PerUnit(); got != 6 {
		t.Errorf("join per unit = %v, want 6", got)
	}
	if got := (Span{StartNS: 0, EndNS: 9}).PerUnit(); got != 0 {
		t.Errorf("per unit with no units = %v, want 0", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder("w")
	root := r.Start("root", -1)
	child := r.Time("child", root, func() int64 { return 7 })
	r.End(root, 1)
	if len(r.Spans) != 2 || r.Spans[child].Parent != root || r.Spans[child].Units != 7 || r.Spans[child].Workload != "w" {
		t.Fatalf("spans = %+v", r.Spans)
	}
	if r.Spans[root].StartNS > r.Spans[child].StartNS || r.Spans[root].EndNS < r.Spans[child].EndNS {
		t.Errorf("child not inside root: %+v", r.Spans)
	}
}
