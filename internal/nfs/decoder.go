package nfs

import "repro/internal/core"

// Decoder decodes NFS bodies into storage it owns, for a caller that
// decodes one message after another and is done with each before the
// next: the sniffer, and each NetServer connection. Its methods are the
// package functions of the same names through the same parsers, with
// one difference. What they decode — the typed args or results, their
// Fattr, WccData, WccAttr and Sattr pointees, the CallInfo or ReplyInfo
// the record is filled from — is the Decoder's and is overwritten by its
// next call, and the handles in it alias the body.
// CallRecord and ReplyRecord intern those handles before they return,
// through a handle memo of the Decoder's own (core.FHMemo), so the
// record they fill holds nothing of the Decoder or the body, and once a
// Decoder has seen each procedure they allocate only the names the
// record keeps.
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

	memo core.FHMemo // spelling → interned handle, for the records filled
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

// DecodeArgs is the package's DecodeArgs, decoding into the Decoder's
// storage: the args are valid until the Decoder's next call, and their
// handles and WRITE data alias body.
func (s *Decoder) DecodeArgs(version, proc uint32, body []byte) (any, error) {
	return decodeArgs(s, version, proc, body)
}

// CallRecord is the package's CallRecord, decoding into the Decoder's
// storage.
func (s *Decoder) CallRecord(rec *core.Record, version, proc uint32, body []byte) error {
	info, err := parseCall(s, &s.call, version, proc, body)
	if err != nil {
		return err
	}
	fillCall(rec, info, &s.memo)
	return nil
}

// ReplyRecord is the package's ReplyRecord, decoding into the Decoder's
// storage.
func (s *Decoder) ReplyRecord(rec *core.Record, version, proc uint32, body []byte) error {
	info, err := parseReply(s, &s.reply, version, proc, body)
	if err != nil {
		return err
	}
	fillReply(rec, info, &s.memo)
	return nil
}

// The helpers below hand a parser the storage it fills. Every parser
// takes the Decoder as s, nil for the package functions, whose results
// belong to the caller: then each helper allocates only what the result
// holds, one object per struct, pointee and handle present.

// procs returns the Decoder's typed structs for a version and
// direction, or nil when s is nil, and starts a new decode: the
// pointees handed out for the previous one are free again.
func (s *Decoder) procs(version uint32, reply bool) *procSlots {
	if s == nil {
		return nil
	}
	s.nfattr, s.nwcc = 0, 0
	dir := 0
	if reply {
		dir = 1
	}
	return &s.slots[version-V2][dir]
}

// own returns the struct a decode of proc fills: the Decoder's own,
// zeroed, or a new one when t is nil.
func own[T any](t *procSlots, proc uint32) *T {
	if t == nil {
		return new(T)
	}
	p, _ := t[proc].(*T)
	if p == nil {
		p = new(T)
		t[proc] = p
	}
	var zero T
	*p = zero
	return p
}

// handle returns the decoded handle bytes b: aliasing the body for the
// Decoder, copied for a caller-owned result.
func (s *Decoder) handle(b []byte) FH {
	if s != nil {
		return FH(b[:len(b):len(b)])
	}
	out := make(FH, len(b))
	copy(out, b)
	return out
}

// fattr returns an attribute block to fill.
func (s *Decoder) fattr() *Fattr {
	if s == nil {
		return new(Fattr)
	}
	a := &s.fattrs[s.nfattr]
	s.nfattr++
	return a
}

// wcc returns a zeroed wcc_data to fill, and the pre-op attributes to
// fill if the body carries them: nil for a caller-owned result, which
// allocates them only then.
func (s *Decoder) wcc() (*WccData, *WccAttr) {
	if s == nil {
		return new(WccData), nil
	}
	w := &s.wccs[s.nwcc]
	s.nwcc++
	w.data = WccData{}
	return &w.data, &w.before
}

// sattrSlots returns where a Sattr's values go: the Decoder's, or all
// nil for a caller-owned result, whose values are allocated one by one
// as they are present.
func (s *Decoder) sattrSlots() sattrPtrs {
	if s == nil {
		return sattrPtrs{}
	}
	v := &s.sattr
	return sattrPtrs{&v.mode, &v.uid, &v.gid, &v.size, &v.atime, &v.mtime}
}

type sattrPtrs struct {
	mode, uid, gid *uint32
	size           *uint64
	atime, mtime   *Time
}

// val stores v at own, or at a new T when own is nil, and returns where
// it went. (Returning &v instead would move v to the heap on every
// call, own or not.)
func val[T any](own *T, v T) *T {
	if own == nil {
		own = new(T)
	}
	*own = v
	return own
}

// dirEntries returns the storage a READDIR result's entries append to:
// the Decoder's, emptied, or nil.
func (s *Decoder) dirEntries() []DirEntry {
	if s == nil {
		return nil
	}
	return s.entries[:0]
}

// setEntries stores a READDIR result's entries: nil when there are
// none, as a fresh decode leaves them. The Decoder keeps the storage.
func (s *Decoder) setEntries(e []DirEntry) []DirEntry {
	if s != nil && cap(e) > cap(s.entries) {
		s.entries = e[:0]
	}
	if len(e) == 0 {
		return nil
	}
	return e
}
