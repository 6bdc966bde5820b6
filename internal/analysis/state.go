package analysis

import (
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// Binary encode/decode of each reducer's partial state, symmetric to
// its Merge form: Decode folds the serialized partial into the receiver
// exactly as Merge would fold a live one. File handles and
// procedures go through the state package's dictionaries, so interned
// IDs survive process boundaries.
//
// Decoding validates semantic invariants (config match, index ranges)
// through Decoder.Failf; a hostile payload leaves the decoder in its
// sticky error state and the caller discards the whole partial, so
// garbage never merges silently.

// maxBucketIndex bounds time-bucket indexes accepted from a state file:
// open accumulators grow to the largest index folded, so an unchecked
// hostile index could demand gigabytes. 2^20 hour-buckets is over a
// century of trace.
const maxBucketIndex = 1 << 20

func encodeCDF(e *state.Encoder, c *stats.CDF) {
	samples := c.Samples()
	e.Uvarint(uint64(len(samples)))
	for _, v := range samples {
		e.F64(v)
	}
}

func decodeCDF(d *state.Decoder, c *stats.CDF) {
	n := d.Count("cdf sample count")
	for i := 0; i < n && d.Err() == nil; i++ {
		c.Add(d.F64())
	}
}

func encodeBuckets(e *state.Encoder, b *stats.TimeBuckets) {
	e.F64(b.Width())
	values := b.Values()
	nonzero := 0
	for _, v := range values {
		if v != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for i, v := range values {
		if v != 0 {
			e.Uvarint(uint64(i))
			e.F64(v)
		}
	}
}

func decodeBuckets(d *state.Decoder, b *stats.TimeBuckets) {
	width := d.F64()
	if d.Err() == nil && width != b.Width() {
		d.Failf("time-bucket width %v does not match accumulator width %v", width, b.Width())
		return
	}
	n := d.Count("time-bucket count")
	for i := 0; i < n && d.Err() == nil; i++ {
		idx := d.Uvarint()
		v := d.F64()
		if idx > maxBucketIndex {
			d.Failf("time-bucket index %d exceeds limit %d", idx, maxBucketIndex)
			return
		}
		if d.Err() == nil {
			b.FoldBucket(int(idx), v)
		}
	}
}

// Encode serializes the summary counters. Days is derived from the
// trace span at render time, so it is not part of the state.
func (s *Summary) Encode(e *state.Encoder) {
	e.Varint(s.TotalOps)
	e.Varint(s.ReadOps)
	e.Varint(s.WriteOps)
	e.Varint(s.MetadataOps)
	e.Uvarint(s.BytesRead)
	e.Uvarint(s.BytesWritten)
	nonzero := 0
	for _, n := range s.ProcCounts {
		if n != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for id, n := range s.ProcCounts {
		if n != 0 {
			e.Proc(core.ProcID(id))
			e.Varint(n)
		}
	}
}

// Decode folds a serialized summary into s, like Merge.
func (s *Summary) Decode(d *state.Decoder) {
	s.TotalOps += d.Varint()
	s.ReadOps += d.Varint()
	s.WriteOps += d.Varint()
	s.MetadataOps += d.Varint()
	s.BytesRead += d.Uvarint()
	s.BytesWritten += d.Uvarint()
	n := d.Count("procedure count")
	for i := 0; i < n && d.Err() == nil; i++ {
		p := d.Proc()
		c := d.Varint()
		if d.Err() == nil {
			s.ProcCounts[p] += c
		}
	}
}

// Encode serializes the five hourly series as sparse buckets.
// Bucket indexes are anchored at t=0, so the open and fixed forms
// serialize identically.
func (h *HourlySeries) Encode(e *state.Encoder) {
	encodeBuckets(e, h.Ops)
	encodeBuckets(e, h.ReadOps)
	encodeBuckets(e, h.WriteOps)
	encodeBuckets(e, h.BytesRead)
	encodeBuckets(e, h.BytesWrite)
}

// Decode folds serialized hourly series into h. The receiver may
// be open (growing) or fixed (clamping); folding by bucket index
// reproduces exactly what adding the underlying ops would have.
func (h *HourlySeries) Decode(d *state.Decoder) {
	decodeBuckets(d, h.Ops)
	decodeBuckets(d, h.ReadOps)
	decodeBuckets(d, h.WriteOps)
	decodeBuckets(d, h.BytesRead)
	decodeBuckets(d, h.BytesWrite)
}

// encode serializes the per-file access lists.
func (m AccessMap) encode(e *state.Encoder) {
	e.Uvarint(uint64(len(m)))
	for fh, accs := range m {
		e.FH(fh)
		e.Uvarint(uint64(len(accs)))
		for _, a := range accs {
			e.F64(a.T)
			e.Uvarint(a.Offset)
			e.Uvarint(uint64(a.Count))
			e.Bool(a.Write)
			e.Bool(a.EOF)
			e.Uvarint(a.Size)
		}
	}
}

// decode appends serialized access lists to m. Partials must be
// decoded in trace-time order so each file's accesses concatenate in
// order — the same contract its merge has.
func (m AccessMap) decode(d *state.Decoder) {
	nf := d.Count("file count")
	for i := 0; i < nf && d.Err() == nil; i++ {
		fh := d.FH()
		na := d.Count("access count")
		for j := 0; j < na && d.Err() == nil; j++ {
			a := Access{
				T:      d.F64(),
				Offset: d.Uvarint(),
				Count:  uint32(d.Uvarint()),
				Write:  d.Bool(),
				EOF:    d.Bool(),
				Size:   d.Uvarint(),
			}
			if d.Err() == nil {
				m[fh] = append(m[fh], a)
			}
		}
	}
}

// Encode serializes the run-detection configuration and the per-file
// access lists. A partial is only meaningful under the configuration it
// was built with, so Decode validates it.
func (r *RunDetector) Encode(e *state.Encoder) {
	e.F64(r.cfg.ReorderWindow)
	e.F64(r.cfg.IdleGap)
	e.Varint(r.cfg.JumpBlocks)
	r.files.encode(e)
}

// Decode appends a serialized run-detection partial to r.
func (r *RunDetector) Decode(d *state.Decoder) {
	rw, ig, jb := d.F64(), d.F64(), d.Varint()
	if d.Err() != nil {
		return
	}
	if rw != r.cfg.ReorderWindow || ig != r.cfg.IdleGap || jb != r.cfg.JumpBlocks {
		d.Failf("run config (window=%v gap=%v k=%v) does not match receiver (window=%v gap=%v k=%v)",
			rw, ig, jb, r.cfg.ReorderWindow, r.cfg.IdleGap, r.cfg.JumpBlocks)
		return
	}
	r.files.decode(d)
}

// Encode serializes the window list and the per-file access lists.
func (r *ReorderSweeper) Encode(e *state.Encoder) {
	e.Uvarint(uint64(len(r.windowsMS)))
	for _, w := range r.windowsMS {
		e.F64(w)
	}
	r.files.encode(e)
}

// Decode appends a serialized reorder-sweep partial to r. The window
// list must match the receiver's.
func (r *ReorderSweeper) Decode(d *state.Decoder) {
	n := d.Count("window count")
	if d.Err() == nil && n != len(r.windowsMS) {
		d.Failf("window count %d does not match receiver's %d", n, len(r.windowsMS))
		return
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		if w := d.F64(); d.Err() == nil && w != r.windowsMS[i] {
			d.Failf("window %d is %vms, receiver has %vms", i, w, r.windowsMS[i])
			return
		}
	}
	r.files.decode(d)
}

// Encode serializes the full mid-stream block-lifetime state:
// result counters, live Phase-1 births, tracked sizes and name
// bindings, and the window configuration (validated on decode — a
// partial is only meaningful under the window it was built with).
func (s *BlockLifeStream) Encode(e *state.Encoder) {
	e.F64(s.start)
	e.F64(s.st.phase1End)
	e.F64(s.st.margin)
	e.Bool(s.done)

	e.Varint(s.st.res.Births)
	for _, c := range s.st.res.BirthCause {
		e.Varint(c)
	}
	e.Varint(s.st.res.Deaths)
	for _, c := range s.st.res.DeathCause {
		e.Varint(c)
	}
	e.Varint(s.st.res.EndSurplus)
	encodeCDF(e, s.st.res.Lifetimes)

	e.Uvarint(uint64(len(s.st.births)))
	for fh, blocks := range s.st.births {
		e.FH(fh)
		e.Uvarint(uint64(len(blocks)))
		for b, t := range blocks {
			e.Varint(b)
			e.F64(t)
		}
	}
	e.Uvarint(uint64(len(s.st.sizes)))
	for fh, size := range s.st.sizes {
		e.FH(fh)
		e.Uvarint(size)
	}
	e.Uvarint(uint64(len(s.st.names)))
	for nb, fh := range s.st.names {
		e.FH(nb.dir)
		e.String(nb.name)
		e.FH(fh)
	}
}

// Decode folds a serialized block-lifetime partial into s. The
// encoded window must match the receiver's: lifetimes and phases only
// compose under one configuration.
func (s *BlockLifeStream) Decode(d *state.Decoder) {
	start := d.F64()
	phase1End := d.F64()
	margin := d.F64()
	done := d.Bool()
	if d.Err() != nil {
		return
	}
	if start != s.start || phase1End != s.st.phase1End || margin != s.st.margin {
		d.Failf("block-life window (start=%v phase1End=%v margin=%v) does not match receiver (start=%v phase1End=%v margin=%v)",
			start, phase1End, margin, s.start, s.st.phase1End, s.st.margin)
		return
	}
	if done {
		d.Failf("block-life state was finalized before export; partials must be exported mid-stream")
		return
	}

	s.st.res.Births += d.Varint()
	for i := range s.st.res.BirthCause {
		s.st.res.BirthCause[i] += d.Varint()
	}
	s.st.res.Deaths += d.Varint()
	for i := range s.st.res.DeathCause {
		s.st.res.DeathCause[i] += d.Varint()
	}
	s.st.res.EndSurplus += d.Varint()
	decodeCDF(d, s.st.res.Lifetimes)

	nb := d.Count("birth file count")
	for i := 0; i < nb && d.Err() == nil; i++ {
		fh := d.FH()
		nblk := d.Count("birth block count")
		for j := 0; j < nblk && d.Err() == nil; j++ {
			b := d.Varint()
			t := d.F64()
			if d.Err() != nil {
				break
			}
			m := s.st.births[fh]
			if m == nil {
				m = make(map[int64]float64)
				s.st.births[fh] = m
			}
			m[b] = t
		}
	}
	ns := d.Count("size count")
	for i := 0; i < ns && d.Err() == nil; i++ {
		fh := d.FH()
		size := d.Uvarint()
		if d.Err() == nil {
			s.st.sizes[fh] = size
		}
	}
	nn := d.Count("name binding count")
	for i := 0; i < nn && d.Err() == nil; i++ {
		dir := d.FH()
		name := d.String("name")
		fh := d.FH()
		if d.Err() == nil {
			s.st.names[nameBinding{dir, name}] = fh
		}
	}
}

// Encode serializes the peak-hour window, category map, and
// instance set.
func (p *PeakHourInstances) Encode(e *state.Encoder) {
	e.F64(p.From)
	e.F64(p.To)
	e.Uvarint(uint64(len(p.cat)))
	for fh, c := range p.cat {
		e.FH(fh)
		e.Uvarint(uint64(c))
	}
	e.Uvarint(uint64(len(p.instances)))
	for fh := range p.instances {
		e.FH(fh)
	}
}

// Decode folds a serialized peak-hour partial into p. Windows must
// match; category entries overwrite (partials are decoded in trace-time
// order, so later name observations win, as they would in one pass).
func (p *PeakHourInstances) Decode(d *state.Decoder) {
	from := d.F64()
	to := d.F64()
	if d.Err() != nil {
		return
	}
	if from != p.From || to != p.To {
		d.Failf("peak-hour window [%v,%v) does not match receiver [%v,%v)", from, to, p.From, p.To)
		return
	}
	nc := d.Count("category count")
	for i := 0; i < nc && d.Err() == nil; i++ {
		fh := d.FH()
		c := d.Uvarint()
		if c >= uint64(numCategories) {
			d.Failf("name category %d out of range (%d categories)", c, numCategories)
			return
		}
		if d.Err() == nil {
			p.cat[fh] = NameCategory(c)
		}
	}
	ni := d.Count("instance count")
	for i := 0; i < ni && d.Err() == nil; i++ {
		fh := d.FH()
		if d.Err() == nil {
			p.instances[fh] = true
		}
	}
}

// Encode serializes the mailbox/large-file handle sets and
// per-file byte counts.
func (m *MailboxShare) Encode(e *state.Encoder) {
	e.Uvarint(uint64(len(m.mailboxFH)))
	for fh := range m.mailboxFH {
		e.FH(fh)
	}
	e.Uvarint(uint64(len(m.big)))
	for fh := range m.big {
		e.FH(fh)
	}
	e.Uvarint(uint64(len(m.bytes)))
	for fh, n := range m.bytes {
		e.FH(fh)
		e.Uvarint(n)
	}
}

// Decode folds a serialized mailbox-share partial into m: handle
// sets union, byte counts sum.
func (m *MailboxShare) Decode(d *state.Decoder) {
	nm := d.Count("mailbox handle count")
	for i := 0; i < nm && d.Err() == nil; i++ {
		if fh := d.FH(); d.Err() == nil {
			m.mailboxFH[fh] = true
		}
	}
	nb := d.Count("big handle count")
	for i := 0; i < nb && d.Err() == nil; i++ {
		if fh := d.FH(); d.Err() == nil {
			m.big[fh] = true
		}
	}
	ny := d.Count("byte entry count")
	for i := 0; i < ny && d.Err() == nil; i++ {
		fh := d.FH()
		n := d.Uvarint()
		if d.Err() == nil {
			m.bytes[fh] += n
		}
	}
}

// encode serializes the reconstructed namespace: parent edges, the
// reverse index exactly as it stands (stale entries and all — resolve's
// repair path depends on the index state, so a faithful copy keeps the
// resumed run deterministic), the known-handle set, and the coverage
// counters.
func (h *Hierarchy) encode(e *state.Encoder) {
	e.Uvarint(uint64(len(h.parent)))
	for fh, nb := range h.parent {
		e.FH(fh)
		e.FH(nb.dir)
		e.String(nb.name)
	}
	e.Uvarint(uint64(len(h.byEdge)))
	for nb, fh := range h.byEdge {
		e.FH(nb.dir)
		e.String(nb.name)
		e.FH(fh)
	}
	e.Uvarint(uint64(len(h.known)))
	for fh := range h.known {
		e.FH(fh)
	}
	e.Varint(h.resolvable)
	e.Varint(h.total)
}

// decode folds a serialized namespace into h.
func (h *Hierarchy) decode(d *state.Decoder) {
	np := d.Count("parent edge count")
	for i := 0; i < np && d.Err() == nil; i++ {
		fh := d.FH()
		dir := d.FH()
		name := d.String("edge name")
		if d.Err() == nil {
			h.parent[fh] = nameBinding{dir, name}
		}
	}
	ne := d.Count("edge index count")
	for i := 0; i < ne && d.Err() == nil; i++ {
		dir := d.FH()
		name := d.String("edge name")
		fh := d.FH()
		if d.Err() == nil {
			h.byEdge[nameBinding{dir, name}] = fh
		}
	}
	nk := d.Count("known handle count")
	for i := 0; i < nk && d.Err() == nil; i++ {
		if fh := d.FH(); d.Err() == nil {
			h.known[fh] = true
		}
	}
	h.resolvable += d.Varint()
	h.total += d.Varint()
}

// Encode serializes the warm-up configuration and clock, the
// post-warmup counters, and the namespace.
func (c *HierarchyCoverage) Encode(e *state.Encoder) {
	e.F64(c.warmup)
	e.Bool(c.started)
	e.F64(c.start)
	e.Varint(c.resolvable)
	e.Varint(c.total)
	c.h.encode(e)
}

// Decode folds a serialized coverage partial into c. The warm-up must
// match the receiver's.
func (c *HierarchyCoverage) Decode(d *state.Decoder) {
	warmup := d.F64()
	if d.Err() == nil && warmup != c.warmup {
		d.Failf("hierarchy warmup %vs does not match receiver's %vs", warmup, c.warmup)
		return
	}
	if started, start := d.Bool(), d.F64(); started && d.Err() == nil {
		c.started, c.start = true, start
	}
	c.resolvable += d.Varint()
	c.total += d.Varint()
	c.h.decode(d)
}

// Encode serializes the name-analysis stream: open instances, name
// bindings, and the folded per-category aggregate.
func (n *NamesStream) Encode(e *state.Encoder) {
	e.Uvarint(uint64(numCategories))

	e.Uvarint(uint64(len(n.lives)))
	for fh, fl := range n.lives {
		e.FH(fh)
		e.String(fl.name)
		e.Uvarint(uint64(fl.cat))
		e.F64(fl.born)
		e.F64(fl.died)
		e.Bool(fl.deleted)
		e.Uvarint(fl.maxSize)
		e.Varint(fl.reads)
		e.Varint(fl.writes)
		e.Bool(fl.readSeq)
	}
	e.Uvarint(uint64(len(n.names)))
	for nb, fh := range n.names {
		e.FH(nb.dir)
		e.String(nb.name)
		e.FH(fh)
	}

	for c := 0; c < int(numCategories); c++ {
		e.Varint(n.agg.created[c])
		e.Varint(n.agg.deleted[c])
		e.Varint(n.agg.readOps[c])
		e.Varint(n.agg.writeOps[c])
		encodeCDF(e, n.agg.lifetimes[c])
		encodeCDF(e, n.agg.sizes[c])
		for _, v := range n.agg.sizeHist[c] {
			e.Varint(v)
		}
		for _, v := range n.agg.lifeHist[c] {
			e.Varint(v)
		}
	}
	e.Varint(n.agg.lockDeleted)
	e.Varint(n.agg.totalDeleted)
}

// Decode folds a serialized names stream into n.
func (n *NamesStream) Decode(d *state.Decoder) {
	nc := d.Uvarint()
	if d.Err() != nil {
		return
	}
	if nc != uint64(numCategories) {
		d.Failf("name-category count %d does not match this build's %d", nc, numCategories)
		return
	}

	nl := d.Count("open instance count")
	for i := 0; i < nl && d.Err() == nil; i++ {
		fh := d.FH()
		fl := &fileLife{
			name: d.String("instance name"),
		}
		cat := d.Uvarint()
		fl.born = d.F64()
		fl.died = d.F64()
		fl.deleted = d.Bool()
		fl.maxSize = d.Uvarint()
		fl.reads = d.Varint()
		fl.writes = d.Varint()
		fl.readSeq = d.Bool()
		if cat >= uint64(numCategories) {
			d.Failf("name category %d out of range (%d categories)", cat, numCategories)
			return
		}
		fl.cat = NameCategory(cat)
		if d.Err() == nil {
			n.lives[fh] = fl
		}
	}
	nn := d.Count("name binding count")
	for i := 0; i < nn && d.Err() == nil; i++ {
		dir := d.FH()
		name := d.String("name")
		fh := d.FH()
		if d.Err() == nil {
			n.names[nameBinding{dir, name}] = fh
		}
	}

	for c := 0; c < int(numCategories) && d.Err() == nil; c++ {
		n.agg.created[c] += d.Varint()
		n.agg.deleted[c] += d.Varint()
		n.agg.readOps[c] += d.Varint()
		n.agg.writeOps[c] += d.Varint()
		decodeCDF(d, n.agg.lifetimes[c])
		decodeCDF(d, n.agg.sizes[c])
		for j := range n.agg.sizeHist[c] {
			n.agg.sizeHist[c][j] += d.Varint()
		}
		for j := range n.agg.lifeHist[c] {
			n.agg.lifeHist[c][j] += d.Varint()
		}
	}
	n.agg.lockDeleted += d.Varint()
	n.agg.totalDeleted += d.Varint()
}
