package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleCall() *Record {
	return &Record{
		Time: 1003680000.004742, Kind: KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: MustProc("read"),
		FH: InternFH("0000000000000007"), Offset: 8192, Count: 8192,
		UID: 501, GID: 100,
	}
}

func sampleReply() *Record {
	return &Record{
		Time: 1003680000.005100, Kind: KindReply,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: MustProc("read"),
		Status: 0, RCount: 8192, Size: 2 << 20, FileID: 7, EOF: false,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range []*Record{sampleCall(), sampleReply()} {
		line := r.Marshal()
		got, err := UnmarshalRecord(line)
		if err != nil {
			t.Fatalf("unmarshal %q: %v", line, err)
		}
		if *got != *r {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestRecordRoundTripAllFields(t *testing.T) {
	r := &Record{
		Time: 1.5, Kind: KindCall, Client: 1, Port: 2, Server: 3, Proto: ProtoTCP,
		XID: 0xdeadbeef, Version: 2, Proc: MustProc("rename"),
		FH: InternFH("aa"), Name: "old name.txt", FH2: InternFH("bb"), Name2: "new=name",
		Offset: 5, Count: 6, Stable: 2, SetSize: 0, HasSet: true,
		UID: 7, GID: 8,
	}
	got, err := UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("\n got %+v\nwant %+v", got, r)
	}

	rep := &Record{
		Time: 2.25, Kind: KindReply, Client: 1, Port: 2, Server: 3, Proto: ProtoTCP,
		XID: 1, Version: 3, Proc: MustProc("setattr"),
		Status: 0, Size: 100, FileID: 42, Mtime: 123.456789,
		PreSize: 9000, HasPre: true, NewFH: InternFH("cc"), EOF: true,
	}
	got, err = UnmarshalRecord(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rep {
		t.Fatalf("\n got %+v\nwant %+v", got, rep)
	}
}

func TestEscaping(t *testing.T) {
	names := []string{
		"plain", "with space", "tab\there", "new\nline",
		"back\\slash", "eq=sign", "mixed \t\\= all",
		// Separators the tokenizer splits on, and bytes that are not
		// UTF-8: both must survive byte for byte.
		"a\rb", "vertical\vtab", "form\ffeed", "\xff b", "\xc3(\x80\x80",
	}
	for _, n := range names {
		r := sampleCall()
		r.Proc = MustProc("lookup")
		r.Name = n
		got, err := UnmarshalRecord(r.Marshal())
		if err != nil {
			t.Fatalf("%q: %v", n, err)
		}
		if got.Name != n {
			t.Fatalf("name %q → %q", n, got.Name)
		}
	}
}

func TestEscapeQuick(t *testing.T) {
	// Arbitrary bytes, not strings: quick's strings are valid UTF-8.
	f := func(b []byte) bool { return unescapeBytes([]byte(escape(string(b)))) == string(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"",
		"1.0 C",
		"xxx C 1.2 3 U 5 3 read uid=0 gid=0",
		"1.0 Z 1.2 3 U 5 3 read uid=0 gid=0",
		"1.0 C 12 3 U 5 3 read uid=0 gid=0",    // client missing port
		"1.0 C 1.2 3 U zz 3 read uid=0 gid=0x", // bad xid? zz invalid hex
		"1.0 C 1.xyz 3 U 5 3 read uid=0",       // bad port
		"1.0 C 1.2 zz@ U 5 3 read uid=0",       // bad server
		"1.0 C 1.2 3 UU 5 3 read uid=0",        // bad proto
		"1.0 C 1.2 3 U 5 vv read uid=0",        // bad version
	}
	for _, line := range bad {
		if _, err := UnmarshalRecord(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestUnknownKeysIgnored(t *testing.T) {
	line := sampleCall().Marshal() + " future=value flag"
	got, err := UnmarshalRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.FH != InternFH("0000000000000007") {
		t.Fatal("known fields lost")
	}
}

func TestWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := []*Record{sampleCall(), sampleReply()}
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Fatalf("count %d", w.Count())
	}
	w.Flush()

	// Inject comments and blanks.
	text := "# trace header\n\n" + buf.String() + "\n# trailer\n"
	got, err := MergeAll(NewReader(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if *got[i] != *records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriteAllReadAll(t *testing.T) {
	var records []*Record
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		r := sampleCall()
		r.Time = float64(i) * 0.001
		r.XID = rng.Uint32()
		records = append(records, r)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := MergeAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("%d records", len(got))
	}
}

func TestFromPair(t *testing.T) {
	call, reply := sampleCall(), sampleReply()
	op := FromPair(call, reply)
	if !op.Replied || op.T != call.Time || op.RT != reply.Time || op.RCount != 8192 || op.Size != 2<<20 {
		t.Fatalf("op: %+v", op)
	}
	if op.Bytes() != 8192 || !op.IsRead() || op.IsMetadata() {
		t.Fatalf("derived: %+v", op)
	}
	// A lost reply still counts the requested bytes.
	if lost := FromPair(call, nil); lost.Replied || lost.OK() || lost.Bytes() != 8192 {
		t.Fatalf("unreplied op: %+v", lost)
	}
}

func TestLossEstimate(t *testing.T) {
	if est := (JoinStats{}).LossEstimate(); est != 0 {
		t.Fatalf("empty trace: %v", est)
	}
	// One reply in ten lost its call and one call in ten its reply.
	s := JoinStats{Calls: 9, Replies: 9, Matched: 8, UnmatchedCalls: 1, OrphanReplies: 1}
	if est := s.LossEstimate(); est < 0.1 || est > 0.11 {
		t.Fatalf("loss estimate %v, want 2 of 19", est)
	}
}

func TestOpClassification(t *testing.T) {
	for proc, want := range map[string][3]bool{
		"read":    {true, false, false},
		"write":   {false, true, false},
		"getattr": {false, false, true},
		"lookup":  {false, false, true},
	} {
		op := &Op{Proc: MustProc(proc)}
		if op.IsRead() != want[0] || op.IsWrite() != want[1] || op.IsMetadata() != want[2] {
			t.Errorf("%s: classification wrong", proc)
		}
	}
}

// TestOpSize pins the Op layout: fields ordered by size leave one byte
// of padding, so the engine's by-value batches and the joiner's chunks
// copy and hold 144 bytes an operation.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 144 {
		t.Fatalf("unsafe.Sizeof(Op{}) = %d, want 144", n)
	}
}
