package core

// Op is one joined NFS operation: a call and (usually) its matched
// reply. This is what every analysis in the paper consumes. Unmatched
// calls — replies lost by the mirror port — have Replied == false, and
// the analyses count them the way §4.1.4 describes.
//
// Target is the one field no trace record carries: the file a REMOVE,
// RMDIR or RENAME's (FH, Name) was bound to when the operation was
// issued. The pipeline's router resolves it from the bindings that
// lookups and creates made and delivers a copy of the op with Target
// set; a source always yields zero, and so does the router when the
// name was never bound.
//
// The fields are ordered by size, widest first, so the struct carries
// one byte of padding and an Op is 144 bytes: the engine copies every
// operation into its shard batches by value.
type Op struct {
	T       float64 // call time
	RT      float64 // reply time (0 when unreplied)
	Offset  uint64
	SetSize uint64
	Size    uint64 // post-op size
	PreSize uint64
	FileID  uint64

	Name  string
	Name2 string

	Client   uint32
	UID, GID uint32
	Version  uint32
	FH       FH // primary handle, interned
	FH2      FH
	Target   FH // the file a bound REMOVE, RMDIR or RENAME names; see above
	NewFH    FH
	Count    uint32 // requested
	Stable   uint32
	Status   uint32
	RCount   uint32 // moved

	Port    uint16
	Proc    ProcID
	Replied bool
	HasSet  bool
	HasPre  bool
	EOF     bool
}

// IsRead reports a data read.
func (o *Op) IsRead() bool { return o.Proc == ProcRead }

// IsWrite reports a data write.
func (o *Op) IsWrite() bool { return o.Proc == ProcWrite }

// IsMetadata reports a non-data operation.
func (o *Op) IsMetadata() bool { return !o.IsRead() && !o.IsWrite() }

// OK reports a successful replied operation.
func (o *Op) OK() bool { return o.Replied && o.Status == 0 }

// Bytes reports the bytes moved: the reply count when available,
// otherwise the requested count (the convention the paper uses when the
// reply was lost).
func (o *Op) Bytes() uint64 {
	if o.Replied && o.RCount != 0 {
		return uint64(o.RCount)
	}
	if o.IsRead() || o.IsWrite() {
		return uint64(o.Count)
	}
	return 0
}

// FromPair builds an Op from a call record and optional reply.
func FromPair(call *Record, reply *Record) *Op {
	op := new(Op)
	op.SetPair(call, reply)
	return op
}

// SetPair overwrites o with the operation a call record and its
// optional reply describe. It is FromPair for callers that place their
// operations themselves, as the joiner does in chunks.
func (o *Op) SetPair(call *Record, reply *Record) {
	*o = Op{
		T:       call.Time,
		Client:  call.Client,
		Port:    call.Port,
		UID:     call.UID,
		GID:     call.GID,
		Version: call.Version,
		Proc:    call.Proc,
		FH:      call.FH,
		Name:    call.Name,
		FH2:     call.FH2,
		Name2:   call.Name2,
		Offset:  call.Offset,
		Count:   call.Count,
		Stable:  call.Stable,
		SetSize: call.SetSize,
		HasSet:  call.HasSet,
	}
	if reply != nil {
		o.Replied = true
		o.RT = reply.Time
		o.Status = reply.Status
		o.RCount = reply.RCount
		o.Size = reply.Size
		o.PreSize = reply.PreSize
		o.HasPre = reply.HasPre
		o.FileID = reply.FileID
		o.NewFH = reply.NewFH
		o.EOF = reply.EOF
	}
}

// DefaultMaxCallAge is how long, in seconds, a call waits for its reply
// before it is given up as unmatched, by the joiner (unless told
// otherwise) and by the sniffer: far beyond any NFS client's
// retransmission schedule.
const DefaultMaxCallAge = 300.0

// JoinStats reports what the call/reply join (pipeline.Joiner) saw,
// feeding the §4.1.4 loss estimate.
type JoinStats struct {
	Calls          int64
	Replies        int64
	Matched        int64
	UnmatchedCalls int64 // calls with no reply (reply lost or in-flight)
	OrphanReplies  int64 // replies whose call was lost
}

// Merge folds other's counts into s — the reduction for partial
// analyses, where each trace piece is joined separately and the
// counters sum exactly.
func (s *JoinStats) Merge(other JoinStats) {
	s.Calls += other.Calls
	s.Replies += other.Replies
	s.Matched += other.Matched
	s.UnmatchedCalls += other.UnmatchedCalls
	s.OrphanReplies += other.OrphanReplies
}

// LossEstimate approximates the fraction of messages lost, following
// the paper: an orphan reply implies a lost call, and an unmatched call
// implies a lost reply (modulo calls still in flight at trace end).
func (s JoinStats) LossEstimate() float64 {
	total := s.Calls + s.Replies
	if total == 0 {
		return 0
	}
	lost := s.OrphanReplies + s.UnmatchedCalls
	return float64(lost) / float64(total+s.OrphanReplies)
}
