package nfs

import (
	"bytes"

	"repro/internal/core"
)

// Decoder is the storage every NFS body is decoded into. What a decode
// returns — the typed args or results, their Fattr, WccData, WccAttr
// and Sattr pointees, the CallInfo or ReplyInfo a record is filled
// from — is the Decoder's and is overwritten by its next decode, and
// the handles and opaque data in it alias the body. A caller that
// decodes one message after another and is done with each before the
// next (the sniffer, each NetServer connection, each pending NetClient
// call, the simulated client) keeps one Decoder and allocates nothing
// once it has seen each procedure. The package functions (DecodeArgs,
// ParseCall, ...) are a fresh Decoder over a private copy of the body,
// so their results own every byte.
//
// CallRecord and ReplyRecord intern the handles they fill a record
// with through a handle memo of the Decoder's own (core.FHMemo, made on
// the first record), so the record holds nothing of the Decoder or the
// body, and once a Decoder has seen each procedure they allocate only
// the names the record keeps.
//
// The zero value is ready to use. A Decoder is not safe for concurrent
// use.
type Decoder struct {
	call  CallInfo
	reply ReplyInfo
	// slots holds the typed structs, one per version, direction and
	// procedure, each made the first time its procedure is decoded.
	slots [2][2]procSlots

	// The pointees of the current decode's structs. No body carries
	// more than two attribute blocks or two wcc_data.
	fattrs  [2]Fattr
	wccs    [2]wccSlot
	nfattr  int // fattrs handed out in the current decode
	nwcc    int // wccs handed out in the current decode
	sattr   sattrVals
	entries []DirEntry // backing of the last READDIR result's Entries

	memo *core.FHMemo // spelling → interned handle, for the records filled
}

// procSlots holds one version and direction's typed structs, by
// procedure.
type procSlots [V3NumProcs]any

type wccSlot struct {
	data   WccData
	before WccAttr
}

// sattrVals holds what a decoded Sattr's pointers point at.
type sattrVals struct {
	mode, uid, gid uint32
	size           uint64
	atime, mtime   Time
}

// DecodeArgs parses the argument body of proc in the given version
// into the Decoder.
func (s *Decoder) DecodeArgs(version, proc uint32, body []byte) (any, error) {
	switch version {
	case V3:
		return decodeArgs3(s, proc, body)
	case V2:
		return decodeArgs2(s, proc, body)
	}
	return nil, ErrBadProc
}

// DecodeRes parses the result body of proc in the given version into
// the Decoder.
func (s *Decoder) DecodeRes(version, proc uint32, body []byte) (any, error) {
	switch version {
	case V3:
		return decodeRes3(s, proc, body)
	case V2:
		return decodeRes2(s, proc, body)
	}
	return nil, ErrBadProc
}

// CallRecord decodes the argument body of an NFS call and fills the
// NFS fields of rec: the procedure, handles, names, range, stability
// and truncation target. It leaves rec untouched on error. The caller
// fills the envelope: time, kind, endpoints, xid, version and
// credentials.
func (s *Decoder) CallRecord(rec *core.Record, version, proc uint32, body []byte) error {
	info, err := parseCall(s, version, proc, body)
	if err != nil {
		return err
	}
	fillCall(rec, info, s.handles())
	return nil
}

// ReplyRecord decodes the result body of an NFS reply to proc and
// fills the NFS fields of rec: the procedure, status, bytes moved, EOF,
// the new handle and the attributes before and after. It leaves rec
// untouched on error; the caller fills the envelope as for CallRecord.
func (s *Decoder) ReplyRecord(rec *core.Record, version, proc uint32, body []byte) error {
	info, err := parseReply(s, version, proc, body)
	if err != nil {
		return err
	}
	fillReply(rec, info, s.handles())
	return nil
}

// handles returns the Decoder's handle memo, made the first time a
// record is filled: a Decoder that only decodes typed bodies never
// needs its 20 KiB.
func (s *Decoder) handles() *core.FHMemo {
	if s.memo == nil {
		s.memo = new(core.FHMemo)
	}
	return s.memo
}

// DecodeArgs parses the argument body of proc in the given version.
func DecodeArgs(version, proc uint32, body []byte) (any, error) {
	return new(Decoder).DecodeArgs(version, proc, bytes.Clone(body))
}

// DecodeRes parses the result body of proc in the given version.
func DecodeRes(version, proc uint32, body []byte) (any, error) {
	return new(Decoder).DecodeRes(version, proc, bytes.Clone(body))
}

// DecodeArgs3 parses the v3 argument body for proc, returning the
// matching *Args3 struct (nil for NULL).
func DecodeArgs3(proc uint32, body []byte) (any, error) {
	return decodeArgs3(new(Decoder), proc, bytes.Clone(body))
}

// DecodeRes3 parses the v3 result body for proc.
func DecodeRes3(proc uint32, body []byte) (any, error) {
	return decodeRes3(new(Decoder), proc, bytes.Clone(body))
}

// ParseCall decodes the argument body of an NFS call into semantic form.
func ParseCall(version, proc uint32, body []byte) (*CallInfo, error) {
	return parseCall(new(Decoder), version, proc, bytes.Clone(body))
}

// ParseReply decodes the result body of an NFS reply into semantic form.
// The caller must supply the procedure from the matched call, since RPC
// replies do not carry it.
func ParseReply(version, proc uint32, body []byte) (*ReplyInfo, error) {
	return parseReply(new(Decoder), version, proc, bytes.Clone(body))
}

// The helpers below hand a parser the Decoder's storage to fill.

// procs returns the Decoder's typed structs for a version and
// direction, and starts a new decode: the pointees handed out for the
// previous one are free again.
func (s *Decoder) procs(version uint32, reply bool) *procSlots {
	s.nfattr, s.nwcc = 0, 0
	dir := 0
	if reply {
		dir = 1
	}
	return &s.slots[version-V2][dir]
}

// own returns the struct a decode of proc fills, zeroed.
func own[T any](t *procSlots, proc uint32) *T {
	p, _ := t[proc].(*T)
	if p == nil {
		p = new(T)
		t[proc] = p
	}
	var zero T
	*p = zero
	return p
}

// handle returns the decoded handle bytes b, aliasing the body.
func handle(b []byte) FH { return FH(b[:len(b):len(b)]) }

// fattr returns an attribute block to fill.
func (s *Decoder) fattr() *Fattr {
	a := &s.fattrs[s.nfattr]
	s.nfattr++
	return a
}

// wcc returns a zeroed wcc_data to fill, and where its pre-op
// attributes go if the body carries them.
func (s *Decoder) wcc() (*WccData, *WccAttr) {
	w := &s.wccs[s.nwcc]
	s.nwcc++
	w.data = WccData{}
	return &w.data, &w.before
}

// val stores v at p and returns p. (Returning &v instead would move v
// to the heap on every call.)
func val[T any](p *T, v T) *T {
	*p = v
	return p
}

// setEntries stores a READDIR result's entries, appended to
// s.entries[:0]: nil when there are none, as the encoder's zero result
// has them. The Decoder keeps the storage.
func (s *Decoder) setEntries(e []DirEntry) []DirEntry {
	if cap(e) > cap(s.entries) {
		s.entries = e[:0]
	}
	if len(e) == 0 {
		return nil
	}
	return e
}
