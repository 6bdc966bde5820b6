package analysis

import (
	"repro/internal/core"
)

// The qualitative Table 1 claims about CAMPUS that need real
// computation: the share of peak-hour file instances that are lock
// files or mailboxes (§6.3), and the share of data bytes moved to and
// from mailboxes. Both are single-pass streaming accumulators that
// defer categorization to Finish, when the full name→category map is
// known — equivalent to the paper's two-pass reconstruction, and what
// lets the pipeline shard them by file handle.

// PeakHourInstances counts the distinct file instances referenced in a
// fixed window and, of those, how many are lock files and mailboxes.
type PeakHourInstances struct {
	From, To float64

	cat       map[core.FH]NameCategory
	instances map[core.FH]bool
}

// NewPeakHourInstances prepares a count over [from, to).
func NewPeakHourInstances(from, to float64) *PeakHourInstances {
	return &PeakHourInstances{
		From: from, To: to,
		cat:       make(map[core.FH]NameCategory),
		instances: make(map[core.FH]bool),
	}
}

// Add folds one operation in. Name learning runs over the whole stream
// (the §4.1.1 reconstruction — data ops carry only the handle);
// instance collection is restricted to the window.
func (p *PeakHourInstances) Add(op *core.Op) {
	if op.NewFH != 0 && op.Name != "" {
		p.cat[op.NewFH] = Categorize(op.Name)
	}
	if op.T < p.From || op.T >= p.To {
		return
	}
	switch op.Proc {
	case core.ProcRead, core.ProcWrite, core.ProcGetattr, core.ProcSetattr,
		core.ProcAccess, core.ProcCommit:
		p.note(op.FH)
	case core.ProcCreate, core.ProcLookup:
		p.note(op.NewFH)
	}
}

func (p *PeakHourInstances) note(fh core.FH) {
	if fh != 0 {
		p.instances[fh] = true
	}
}

// PeakHourResult is the finished count.
type PeakHourResult struct {
	Instances int
	Locks     int
	Mailboxes int
}

// LockFrac reports lock files as a fraction of instances.
func (r PeakHourResult) LockFrac() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Locks) / float64(r.Instances)
}

// MailboxFrac reports mailboxes as a fraction of instances.
func (r PeakHourResult) MailboxFrac() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Mailboxes) / float64(r.Instances)
}

// Finish categorizes the collected instances with the final name map.
func (p *PeakHourInstances) Finish() PeakHourResult {
	var r PeakHourResult
	for fh := range p.instances {
		r.Instances++
		switch p.cat[fh] {
		case CatLock:
			r.Locks++
		case CatMailbox:
			r.Mailboxes++
		}
	}
	return r
}

// Merge folds src's name categories and instance set into p for the
// handles f owns. Categories overwrite: src is the later partial, so
// its name observations win, as they would in one pass.
func (p *PeakHourInstances) Merge(src *PeakHourInstances, f Filter) {
	p.cat = overlay(p.cat, src.cat, f.Owns)
	p.instances = overlay(p.instances, src.instances, f.Owns)
}

// MailboxShare accumulates the data bytes moved per file alongside the
// mailbox and large-file handle sets, deferring the share computation
// to Finish so that late name discoveries still count.
type MailboxShare struct {
	mailboxFH map[core.FH]bool
	big       map[core.FH]bool
	bytes     map[core.FH]uint64
}

// NewMailboxShare returns an empty accumulator.
func NewMailboxShare() *MailboxShare {
	return &MailboxShare{
		mailboxFH: make(map[core.FH]bool),
		big:       make(map[core.FH]bool),
		bytes:     make(map[core.FH]uint64),
	}
}

// Add folds one operation in.
func (m *MailboxShare) Add(op *core.Op) {
	if op.NewFH != 0 && Categorize(op.Name) == CatMailbox {
		m.mailboxFH[op.NewFH] = true
	}
	// Handles populated before the trace (setup inboxes) are found by
	// size: multi-megabyte files on CAMPUS are mailboxes. The paper
	// identifies them by name via the same hierarchy trick.
	if op.Size > 1<<20 {
		m.big[op.FH] = true
	}
	if op.IsRead() || op.IsWrite() {
		m.bytes[op.FH] += op.Bytes()
	}
}

// Merge folds src into m for the handles f owns: handle sets union,
// byte counts sum.
func (m *MailboxShare) Merge(src *MailboxShare, f Filter) {
	m.mailboxFH = overlay(m.mailboxFH, src.mailboxFH, f.Owns)
	m.big = overlay(m.big, src.big, f.Owns)
	m.bytes = roomFor(m.bytes, src.bytes, f.Owns)
	for fh, n := range src.bytes {
		if f.owns(fh) {
			m.bytes[fh] += n
		}
	}
}

// Finish sums the per-file byte counts against the final handle sets
// and returns the bytes moved on mailboxes and all data bytes. When
// named mailboxes account for under half the bytes, the estimate that
// also counts multi-megabyte files stands in.
func (m *MailboxShare) Finish() (mailbox, total uint64) {
	var alt uint64
	for fh, n := range m.bytes {
		total += n
		if m.mailboxFH[fh] {
			mailbox += n
		}
		if m.mailboxFH[fh] || m.big[fh] {
			alt += n
		}
	}
	if total > 0 && float64(mailbox)/float64(total) < 0.5 {
		mailbox = alt
	}
	return mailbox, total
}
