package rpc

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mount"
	"repro/internal/nfs"
	"repro/internal/xdr"
)

// FuzzRPCDecode feeds arbitrary bytes to the RPC header decoder, the
// AUTH_SYS credential decoder and the MOUNT codecs that ride on RPC.
// None may panic. A header either decoder accepts re-encodes to a
// fixed point: encoding what a decode of the first encoding returns
// gives the same bytes again. A credential or MOUNT result it accepts
// survives encode and decode unchanged.
func FuzzRPCDecode(f *testing.F) {
	cred := xdr.NewEncoder(64)
	sampleAuthSys().Encode(cred)
	f.Add(cred.Bytes())
	e := xdr.NewEncoder(128)
	EncodeCall(e, &CallHeader{XID: 0xCAFEBABE, Program: ProgramNFS, Version: 3, Proc: 6,
		Cred: OpaqueAuth{Flavor: AuthSys, Body: cred.Bytes()}, Verf: OpaqueAuth{Flavor: AuthNone},
		Args: []byte{0, 0, 0, 4, 1, 2, 3, 4}})
	f.Add(append([]byte(nil), e.Bytes()...))
	for _, h := range []*ReplyHeader{
		{XID: 7, ReplyStat: MsgAccepted, AcceptStat: Success, Results: []byte{0, 0, 0, 0, 9, 9, 9, 9}},
		{XID: 8, ReplyStat: MsgAccepted, AcceptStat: ProgUnavail},
		{XID: 9, ReplyStat: MsgDenied},
	} {
		e.Reset()
		EncodeReply(e, h)
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	e.Reset()
	mount.EncodeMntArgs(e, &mount.MntArgs{DirPath: "/home02/u0001"})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	mount.EncodeMntRes(e, &mount.MntRes{Status: mount.OK, FH: nfs.MakeFH(42), Flavors: []uint32{AuthSys}})
	f.Add(append([]byte(nil), e.Bytes()...))

	f.Fuzz(func(t *testing.T, b []byte) {
		if dec, err := Decode(b); err == nil {
			first := encodeDecoded(dec)
			again, err := Decode(first)
			if err != nil {
				t.Fatalf("re-encoded %x rejected: %v", first, err)
			}
			if second := encodeDecoded(again); !bytes.Equal(first, second) {
				t.Fatalf("re-encoding is not a fixed point:\n first %x\nsecond %x", first, second)
			}
		}
		if a, err := DecodeAuthSys(b); err == nil {
			e := xdr.NewEncoder(len(b))
			a.Encode(e)
			if again, err := DecodeAuthSys(e.Bytes()); err != nil || !reflect.DeepEqual(again, a) {
				t.Fatalf("AUTH_SYS %+v re-decoded as %+v, %v", a, again, err)
			}
		}
		_, _ = mount.DecodeMntArgs(b)
		if r, err := mount.DecodeMntRes(b); err == nil {
			e := xdr.NewEncoder(len(b))
			mount.EncodeMntRes(e, r)
			if again, err := mount.DecodeMntRes(e.Bytes()); err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("MNT result %+v re-decoded as %+v, %v", r, again, err)
			}
		}
	})
}

func encodeDecoded(d *Decoded) []byte {
	e := xdr.NewEncoder(64)
	if d.Type == Call {
		EncodeCall(e, d.Call)
	} else {
		EncodeReply(e, d.Reply)
	}
	return e.Bytes()
}
