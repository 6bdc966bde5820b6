package rpc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func sampleAuthSys() *AuthSysBody {
	return &AuthSysBody{
		Stamp:       12345,
		MachineName: "client01",
		UID:         501,
		GID:         100,
		GIDs:        []uint32{100, 200},
	}
}

func TestAuthSysRoundTrip(t *testing.T) {
	a := sampleAuthSys()
	e := xdr.NewEncoder(64)
	a.Encode(e)
	got, err := DecodeAuthSys(e.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Stamp != a.Stamp || got.MachineName != a.MachineName ||
		got.UID != a.UID || got.GID != a.GID || len(got.GIDs) != 2 ||
		got.GIDs[0] != 100 || got.GIDs[1] != 200 {
		t.Fatalf("got %+v, want %+v", got, a)
	}
}

func TestAuthSysTooManyGIDs(t *testing.T) {
	e := xdr.NewEncoder(256)
	e.PutUint32(1)
	e.PutString("m")
	e.PutUint32(0)
	e.PutUint32(0)
	e.PutUint32(17) // over the RFC limit of 16
	for i := 0; i < 17; i++ {
		e.PutUint32(uint32(i))
	}
	if _, err := DecodeAuthSys(e.Bytes()); err == nil {
		t.Fatal("accepted 17 gids")
	}
}

func encodedCall(t *testing.T) ([]byte, *CallHeader) {
	t.Helper()
	cred := xdr.NewEncoder(64)
	sampleAuthSys().Encode(cred)
	h := &CallHeader{
		XID:     0xCAFEBABE,
		Program: ProgramNFS,
		Version: 3,
		Proc:    6, // READ
		Cred:    OpaqueAuth{Flavor: AuthSys, Body: cred.Bytes()},
		Verf:    OpaqueAuth{Flavor: AuthNone},
		Args:    []byte{0, 0, 0, 4, 1, 2, 3, 4},
	}
	e := xdr.NewEncoder(128)
	EncodeCall(e, h)
	return e.Bytes(), h
}

func TestCallRoundTrip(t *testing.T) {
	wire, h := encodedCall(t)
	dec, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Type != Call || dec.Call == nil {
		t.Fatalf("decoded type %d", dec.Type)
	}
	c := dec.Call
	if c.XID != h.XID || c.Program != h.Program || c.Version != h.Version || c.Proc != h.Proc {
		t.Fatalf("header mismatch: %+v", c)
	}
	if c.Cred.Flavor != AuthSys {
		t.Fatalf("cred flavor %d", c.Cred.Flavor)
	}
	if !bytes.Equal(c.Args, h.Args) {
		t.Fatalf("args %x want %x", c.Args, h.Args)
	}
	a, err := DecodeAuthSys(c.Cred.Body)
	if err != nil || a.UID != 501 {
		t.Fatalf("auth body: %+v %v", a, err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	h := &ReplyHeader{
		XID:        7,
		ReplyStat:  MsgAccepted,
		AcceptStat: Success,
		Results:    []byte{0, 0, 0, 0, 9, 9, 9, 9},
	}
	e := xdr.NewEncoder(64)
	EncodeReply(e, h)
	dec, err := Decode(e.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Type != Reply || dec.Reply == nil {
		t.Fatal("not a reply")
	}
	r := dec.Reply
	if r.XID != 7 || r.ReplyStat != MsgAccepted || r.AcceptStat != Success {
		t.Fatalf("header: %+v", r)
	}
	if !bytes.Equal(r.Results, h.Results) {
		t.Fatalf("results %x", r.Results)
	}
}

func TestReplyDenied(t *testing.T) {
	h := &ReplyHeader{XID: 9, ReplyStat: MsgDenied}
	e := xdr.NewEncoder(32)
	EncodeReply(e, h)
	dec, err := Decode(e.Bytes())
	if err != nil {
		t.Fatalf("decode denied: %v", err)
	}
	if dec.Reply.ReplyStat != MsgDenied {
		t.Fatalf("stat %d", dec.Reply.ReplyStat)
	}
}

func TestReplyNonSuccessAccept(t *testing.T) {
	h := &ReplyHeader{XID: 10, ReplyStat: MsgAccepted, AcceptStat: ProcUnavail}
	e := xdr.NewEncoder(32)
	EncodeReply(e, h)
	dec, err := Decode(e.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Reply.AcceptStat != ProcUnavail {
		t.Fatalf("accept stat %d", dec.Reply.AcceptStat)
	}
	if dec.Reply.Results != nil {
		t.Fatal("results should be nil for non-success")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Error("short garbage accepted")
	}
	// Wrong message type.
	e := xdr.NewEncoder(16)
	e.PutUint32(1)
	e.PutUint32(99)
	if _, err := Decode(e.Bytes()); err == nil {
		t.Error("bad mtype accepted")
	}
	// Wrong RPC version in call.
	e = xdr.NewEncoder(32)
	e.PutUint32(1)
	e.PutUint32(Call)
	e.PutUint32(3) // not version 2
	e.PutUint32(ProgramNFS)
	e.PutUint32(3)
	e.PutUint32(0)
	if _, err := Decode(e.Bytes()); err == nil {
		t.Error("bad rpc version accepted")
	}
}

func TestMarkRecordSingle(t *testing.T) {
	msg := []byte("hello rpc")
	framed := MarkRecord(msg)
	var s RecordScanner
	s.Append(framed)
	got, err := s.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if more, _ := s.Next(); more != nil {
		t.Fatal("spurious extra record")
	}
}

func TestMarkRecordFragmented(t *testing.T) {
	msg := bytes.Repeat([]byte{0x5A}, 1000)
	framed := MarkRecordFragmented(msg, 300)
	var s RecordScanner
	// Feed one byte at a time to exercise partial-header handling.
	for _, b := range framed {
		s.Append([]byte{b})
	}
	got, err := s.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(msg))
	}
}

func TestRecordScannerMultipleMessages(t *testing.T) {
	var streamBytes []byte
	msgs := [][]byte{[]byte("one"), []byte("twotwo"), []byte("three33three")}
	for _, m := range msgs {
		streamBytes = append(streamBytes, MarkRecord(m)...)
	}
	var s RecordScanner
	s.Append(streamBytes)
	for i, want := range msgs {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: got %q want %q", i, got, want)
		}
	}
	if got, _ := s.Next(); got != nil {
		t.Fatal("extra message")
	}
}

// TestRecordScannerKeepsMessages: every message Next returned stays
// intact while the scanner goes on, through many Appends that refill
// and outgrow its stream buffer. Records of one fragment, returned in
// place, and of several, gathered, alternate; segment sizes vary.
func TestRecordScannerKeepsMessages(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 300; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 1+i*97%9000)
		want = append(want, msg)
		if i%3 == 2 {
			stream = append(stream, MarkRecordFragmented(msg, 1000)...)
		} else {
			stream = append(stream, MarkRecord(msg)...)
		}
	}
	var s RecordScanner
	var got [][]byte
	for off, i := 0, 0; off < len(stream); i++ {
		n := min(len(stream)-off, []int{1, 1448, 8948, 60000, 3}[i%5])
		s.Append(stream[off : off+n])
		off += n
		for {
			msg, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if msg == nil {
				break
			}
			got = append(got, msg)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d changed after later calls", i)
		}
	}
}

// TestRecordScannerEmptyRecord: a zero-length record is delivered as an
// empty message, and the records buffered behind it come out of the same
// Append instead of waiting for more stream bytes.
func TestRecordScannerEmptyRecord(t *testing.T) {
	call, _ := encodedCall(t)
	var s RecordScanner
	s.Append(append(MarkRecord(nil), MarkRecord(call)...))
	for i, want := range [][]byte{{}, call} {
		got, err := s.Next()
		if err != nil || got == nil || !bytes.Equal(got, want) {
			t.Fatalf("message %d: got %x (nil=%v), err %v; want %x", i, got, got == nil, err, want)
		}
	}
	if got, err := s.Next(); got != nil || err != nil {
		t.Fatalf("after both records: got %x, err %v", got, err)
	}
}

func TestRecordScannerHostileLength(t *testing.T) {
	var s RecordScanner
	s.Append([]byte{0x7F, 0xFF, 0xFF, 0xFF}) // 2GB non-final fragment
	if _, err := s.Next(); err == nil {
		t.Fatal("hostile fragment length accepted")
	}
}

// TestRecordScannerBoundsReassembledRecord feeds non-final fragments,
// each well under the per-fragment limit, until their sum passes 16 MiB:
// the scanner must give the record up as a framing error rather than
// grow it for as long as the stream lasts.
func TestRecordScannerBoundsReassembledRecord(t *testing.T) {
	const fragLen = 1 << 20
	frag := make([]byte, 4+fragLen)
	frag[1] = fragLen >> 16 // header 0x00100000: non-final, 1 MiB
	var s RecordScanner
	for i := 0; i < xdr.MaxItemLen/fragLen; i++ {
		s.Append(frag)
		if msg, err := s.Next(); msg != nil || err != nil {
			t.Fatalf("fragment %d: got message %v, error %v; want neither yet", i, msg != nil, err)
		}
	}
	s.Append(frag)
	if _, err := s.Next(); err == nil {
		t.Fatal("record past 16 MiB of non-final fragments accepted")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(msg []byte, frag uint8) bool {
		fragSize := int(frag)%64 + 1
		framed := MarkRecordFragmented(msg, fragSize)
		var s RecordScanner
		s.Append(framed)
		got, err := s.Next()
		if err != nil {
			return false
		}
		if len(msg) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCallReplyXIDMatch(t *testing.T) {
	f := func(xid uint32) bool {
		e := xdr.NewEncoder(64)
		EncodeCall(e, &CallHeader{XID: xid, Program: ProgramNFS, Version: 3, Proc: 1,
			Cred: OpaqueAuth{Flavor: AuthNone}, Verf: OpaqueAuth{Flavor: AuthNone}})
		dc, err := Decode(e.Bytes())
		if err != nil || dc.Call.XID != xid {
			return false
		}
		e2 := xdr.NewEncoder(64)
		EncodeReply(e2, &ReplyHeader{XID: xid, ReplyStat: MsgAccepted, AcceptStat: Success})
		dr, err := Decode(e2.Bytes())
		return err == nil && dr.Reply.XID == xid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeAuthSysIntoReuse: a credential decoded into an AuthSysBody
// that held another reads as it does fresh. A body with no groups
// leaves GIDs nil, not an empty slice of the old storage, so it renders
// as null as a fresh decode does.
func TestDecodeAuthSysIntoReuse(t *testing.T) {
	var a AuthSysBody
	for _, want := range []*AuthSysBody{
		sampleAuthSys(),
		{Stamp: 7, MachineName: "other", UID: 1, GID: 2},
		{Stamp: 8, MachineName: "other", UID: 3, GID: 4, GIDs: []uint32{5}},
		{Stamp: 9, UID: 6, GID: 7},
	} {
		e := xdr.NewEncoder(64)
		want.Encode(e)
		if err := DecodeAuthSysInto(&a, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeAuthSys(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(&a)
		wantJSON, _ := json.Marshal(fresh)
		if !reflect.DeepEqual(&a, fresh) || string(got) != string(wantJSON) {
			t.Fatalf("reused decode %s, fresh %s", got, wantJSON)
		}
	}
}

// TestDecoderAllocations: one Decoder and one AuthSysBody decode a
// call, its credential and a reply without allocating.
func TestDecoderAllocations(t *testing.T) {
	cred := xdr.NewEncoder(64)
	sampleAuthSys().Encode(cred)
	e := xdr.NewEncoder(128)
	EncodeCall(e, &CallHeader{XID: 1, Program: ProgramNFS, Version: 3, Proc: 6,
		Cred: OpaqueAuth{Flavor: AuthSys, Body: cred.Bytes()}})
	call := append([]byte(nil), e.Bytes()...)
	e.Reset()
	EncodeReply(e, &ReplyHeader{XID: 1, ReplyStat: MsgAccepted, AcceptStat: Success, Results: []byte{0, 0, 0, 0}})
	reply := e.Bytes()
	var dec Decoder
	var a AuthSysBody
	allocs := testing.AllocsPerRun(100, func() {
		m, err := dec.Decode(call)
		if err != nil || DecodeAuthSysInto(&a, m.Call.Cred.Body) != nil {
			t.Fatal("call decode failed")
		}
		if _, err := dec.Decode(reply); err != nil {
			t.Fatal("reply decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per call, credential and reply; want 0", allocs)
	}
}
