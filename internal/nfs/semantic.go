package nfs

import "repro/internal/core"

// The semantic layer decodes either protocol version into the compact,
// version-neutral view the sniffer records: which object, which name,
// what range. This is the NFS-level content of one nfsdump-style trace
// record, and CallRecord and ReplyRecord are the one place that maps it
// onto a core.Record.

// CallInfo is the semantic content of an NFS call.
type CallInfo struct {
	Version uint32
	Proc    uint32 // in the numbering of Version
	Name    string // procedure name, v3 vocabulary where shared

	FH     FH     // primary handle (file or directory)
	FName  string // name within FH for directory ops
	FH2    FH     // target directory for RENAME/LINK
	FName2 string // target name for RENAME/LINK

	Offset uint64 // READ/WRITE/COMMIT offset
	Count  uint32 // requested byte count
	Stable uint32 // WRITE stability

	SetSize *uint64 // SETATTR truncation target, if any
}

// ReplyInfo is the semantic content of an NFS reply.
type ReplyInfo struct {
	Version uint32
	Proc    uint32
	Name    string

	Status uint32
	Attr   *Fattr // attributes of the primary object, when present
	NewFH  FH     // handle returned by LOOKUP/CREATE/MKDIR
	Count  uint32 // bytes moved by READ/WRITE
	EOF    bool   // READ hit end-of-file
	Pre    *WccAttr
}

// fillCall fills rec from info, interning its handles through memo.
func fillCall(rec *core.Record, info *CallInfo, memo *core.FHMemo) {
	rec.Proc = core.MustProc(info.Name)
	rec.FH, rec.Name = info.FH.internIn(memo), info.FName
	rec.FH2, rec.Name2 = info.FH2.internIn(memo), info.FName2
	rec.Offset, rec.Count, rec.Stable = info.Offset, info.Count, info.Stable
	if info.SetSize != nil {
		rec.SetSize, rec.HasSet = *info.SetSize, true
	}
}

func fillReply(rec *core.Record, info *ReplyInfo, memo *core.FHMemo) {
	rec.Proc = core.MustProc(info.Name)
	rec.Status, rec.RCount, rec.EOF = info.Status, info.Count, info.EOF
	rec.NewFH = info.NewFH.internIn(memo)
	if info.Attr != nil {
		rec.Size = info.Attr.Size
		rec.FileID = info.Attr.FileID
		rec.Mtime = info.Attr.Mtime.Seconds()
	}
	if info.Pre != nil {
		rec.PreSize, rec.HasPre = info.Pre.Size, true
	}
}

// parseCall is ParseCall into s. One switch serves both versions: the
// v2 argument structs that share a v3 shape are the v3 types.
func parseCall(s *Decoder, version, proc uint32, body []byte) (*CallInfo, error) {
	args, err := s.DecodeArgs(version, proc, body)
	if err != nil {
		return nil, err
	}
	info := &s.call
	*info = CallInfo{Version: version, Proc: proc, Name: ProcName(version, proc)}
	switch a := args.(type) {
	case nil:
	case *GetattrArgs3:
		info.FH = a.FH
	case *SetattrArgs3:
		info.FH = a.FH
		info.SetSize = a.Attr.Size
	case *SetattrArgs2:
		info.FH = a.FH
		info.SetSize = a.Attr.Size
	case *DirOpArgs3:
		info.FH = a.Dir
		info.FName = a.Name
	case *AccessArgs3:
		info.FH = a.FH
	case *ReadArgs3:
		info.FH = a.FH
		info.Offset = a.Offset
		info.Count = a.Count
	case *ReadArgs2:
		info.FH = a.FH
		info.Offset = uint64(a.Offset)
		info.Count = a.Count
	case *WriteArgs3:
		info.FH = a.FH
		info.Offset = a.Offset
		info.Count = a.Count
		info.Stable = a.Stable
	case *WriteArgs2:
		info.FH = a.FH
		info.Offset = uint64(a.Offset)
		info.Count = uint32(len(a.Data))
		info.Stable = FileSync // v2 writes are synchronous
	case *CreateArgs3:
		info.FH = a.Where.Dir
		info.FName = a.Where.Name
		info.SetSize = a.Attr.Size
	case *CreateArgs2:
		info.FH = a.Where.Dir
		info.FName = a.Where.Name
		info.SetSize = a.Attr.Size
	case *MkdirArgs3:
		info.FH = a.Where.Dir
		info.FName = a.Where.Name
	case *SymlinkArgs3:
		info.FH = a.Where.Dir
		info.FName = a.Where.Name
	case *RenameArgs3:
		info.FH = a.From.Dir
		info.FName = a.From.Name
		info.FH2 = a.To.Dir
		info.FName2 = a.To.Name
	case *LinkArgs3:
		info.FH = a.FH
		info.FH2 = a.To.Dir
		info.FName2 = a.To.Name
	case *ReaddirArgs3:
		info.FH = a.Dir
		info.Count = a.MaxCount
	case *ReaddirArgs2:
		info.FH = a.Dir
		info.Count = a.Count
	case *CommitArgs3:
		info.FH = a.FH
		info.Offset = a.Offset
		info.Count = a.Count
	}
	return info, nil
}

// parseReply is ParseReply into s. The v2 and v3 result structs are
// distinct types, so one switch serves both versions.
func parseReply(s *Decoder, version, proc uint32, body []byte) (*ReplyInfo, error) {
	res, err := s.DecodeRes(version, proc, body)
	if err != nil {
		return nil, err
	}
	info := &s.reply
	*info = ReplyInfo{Version: version, Proc: proc, Name: ProcName(version, proc)}
	switch r := res.(type) {
	case nil:
	case *GetattrRes3:
		info.Status = r.Status
		info.Attr = r.Attr
	case *SetattrRes3:
		info.Status = r.Status
		info.wcc(r.Wcc)
	case *LookupRes3:
		info.Status = r.Status
		info.NewFH = r.FH
		info.Attr = r.Attr
	case *AccessRes3:
		info.Status = r.Status
		info.Attr = r.Attr
	case *ReadRes3:
		info.Status = r.Status
		info.Attr = r.Attr
		info.Count = r.Count
		info.EOF = r.EOF
	case *WriteRes3:
		info.Status = r.Status
		info.Count = r.Count
		info.wcc(r.Wcc)
	case *CreateRes3:
		info.Status = r.Status
		info.NewFH = r.FH
		info.Attr = r.Attr
	case *RemoveRes3:
		info.Status = r.Status
		info.wcc(r.Wcc)
	case *RenameRes3:
		info.Status = r.Status
	case *ReaddirRes3:
		info.Status = r.Status
		info.Attr = r.DirAttr
		info.EOF = r.EOF
	case *FsstatRes3:
		info.Status = r.Status
		info.Attr = r.Attr
	case *CommitRes3:
		info.Status = r.Status
		if r.Wcc != nil {
			info.Attr = r.Wcc.After
		}
	case *AttrStatRes2:
		// A v2 WRITE reply carries no count: its attributes confirm the
		// whole request landed, so Count stays zero and a joined op
		// counts the call's bytes instead.
		info.Status = r.Status
		info.Attr = r.Attr
	case *DirOpRes2:
		info.Status = r.Status
		info.NewFH = r.FH
		info.Attr = r.Attr
	case *ReadRes2:
		info.Status = r.Status
		info.Attr = r.Attr
		info.Count = uint32(len(r.Data))
		if r.Attr != nil {
			info.EOF = uint64(len(r.Data)) == 0 || r.Attr.Size == 0
		}
	case *StatusRes2:
		info.Status = r.Status
	case *ReaddirRes2:
		info.Status = r.Status
		info.EOF = r.EOF
	case *StatfsRes2:
		info.Status = r.Status
	}
	return info, nil
}

// wcc takes the attributes after and before the operation from a
// wcc_data.
func (info *ReplyInfo) wcc(w *WccData) {
	if w != nil {
		info.Attr = w.After
		info.Pre = w.Before
	}
}
