package analysis

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// The serialized layout of each reducer's partial state, written once:
// State hands every field to a state.Codec, which either writes it or
// overwrites it with what it reads (see Reducer). File handles and
// procedures go through the state package's dictionaries, so interned
// IDs survive process boundaries, and map entries go out in spelling
// order, so the bytes depend only on the state.
//
// A configured reducer codes its configuration first and validates it
// through Codec.Failf before touching any other field; a hostile payload
// leaves the codec in its sticky error state and the caller discards the
// whole reducer, so garbage never merges silently.

// maxBucketIndex bounds time-bucket indexes accepted from a state file:
// open accumulators grow to the largest index folded, so an unchecked
// hostile index could demand gigabytes. 2^20 hour-buckets is over a
// century of trace.
const maxBucketIndex = 1 << 20

func varintsState(c *state.Codec, vs []int64) {
	for i := range vs {
		c.Varint(&vs[i])
	}
}

// setState codes a handle set.
func setState(c *state.Codec, m *map[core.FH]bool, what string) {
	state.Map(c, m, what, state.CompareFH, func(fh *core.FH, in *bool) {
		c.FH(fh)
		*in = true
	})
}

// sizesState codes a per-handle unsigned quantity.
func sizesState(c *state.Codec, m *map[core.FH]uint64, what string) {
	state.Map(c, m, what, state.CompareFH, func(fh *core.FH, n *uint64) {
		c.FH(fh)
		c.Uvarint(n)
	})
}

func cdfState(c *state.Codec, cdf *stats.CDF) {
	samples := cdf.Samples()
	state.Slice(c, &samples, "cdf sample count", c.F64)
	if c.Decoding() {
		cdf.AddSamples(samples)
	}
}

// bucket is one nonzero time bucket: buckets are coded sparsely.
type bucket struct {
	index uint64
	value float64
}

// bucketsState codes the accumulator width and its nonzero buckets by
// index. Indexes are anchored at t=0, so the open and fixed forms code
// identically, and folding decoded buckets by index reproduces what
// adding the underlying ops would have.
func bucketsState(c *state.Codec, b *stats.TimeBuckets) {
	width := b.Width()
	if c.F64(&width); width != b.Width() {
		c.Failf("time-bucket width %v does not match accumulator width %v", width, b.Width())
		return
	}
	var nonzero []bucket
	for i, v := range b.Values() {
		if v != 0 {
			nonzero = append(nonzero, bucket{uint64(i), v})
		}
	}
	state.Slice(c, &nonzero, "time-bucket count", func(e *bucket) {
		state.Below(c, &e.index, maxBucketIndex+1, "time-bucket index")
		c.F64(&e.value)
	})
	if c.Decoding() {
		for _, e := range nonzero {
			b.FoldBucket(int(e.index), e.value)
		}
	}
}

// State codes the summary counters. Days is derived from the trace span
// at render time, so it is not part of the state; procedures go out by
// name, because dynamically interned IDs are process-local.
func (s *Summary) State(c *state.Codec) {
	c.Varint(&s.TotalOps)
	c.Varint(&s.ReadOps)
	c.Varint(&s.WriteOps)
	c.Varint(&s.MetadataOps)
	c.Uvarint(&s.BytesRead)
	c.Uvarint(&s.BytesWritten)
	counts := make(map[core.ProcID]int64)
	for id, n := range s.ProcCounts {
		if n != 0 {
			counts[core.ProcID(id)] = n
		}
	}
	state.Map(c, &counts, "procedure count", state.CompareProc, func(p *core.ProcID, n *int64) {
		c.Proc(p)
		c.Varint(n)
	})
	if c.Decoding() {
		for p, n := range counts {
			s.ProcCounts[p] = n
		}
	}
}

// State codes the five hourly series.
func (h *HourlySeries) State(c *state.Codec) {
	for _, b := range []*stats.TimeBuckets{h.Ops, h.ReadOps, h.WriteOps, h.BytesRead, h.BytesWrite} {
		bucketsState(c, b)
	}
}

func accessState(c *state.Codec, a *Access) {
	c.F64(&a.T)
	c.Uvarint(&a.Offset)
	state.Below(c, &a.Count, math.MaxUint32+1, "access byte count")
	c.Bool(&a.Write)
	c.Bool(&a.EOF)
	c.Uvarint(&a.Size)
}

func accessesState(c *state.Codec, accs *[]Access) {
	state.Slice(c, accs, "access count", func(a *Access) { accessState(c, a) })
}

// state codes a file's head and its cut. Decoding replays the head
// through take, which recomputes its bounds and refuses a head that
// runs past its cut or a cut that does not close it.
func (h *head) state(c *state.Codec, w float64) {
	accessesState(c, &h.accs)
	c.Bool(&h.cut)
	if h.cut {
		c.F64(&h.cutT)
	}
	if !c.Decoding() {
		return
	}
	replay := head{}
	for _, a := range h.accs {
		if !replay.take(a, w) {
			c.Failf("file head runs past its cut")
			return
		}
	}
	if h.cut && len(h.accs) > 0 && replay.take(Access{T: h.cutT}, w) {
		c.Failf("file cut at t=%v does not close its head", h.cutT)
	}
	h.minT, h.maxT = replay.minT, replay.maxT
}

// state codes the pending accesses and the swap count; decoding starts
// the oldest position's scan afresh.
func (p *window) state(c *state.Codec) {
	pending, swaps := p.pending(), int64(p.swaps)
	accessesState(c, &pending)
	c.Varint(&swaps)
	if c.Decoding() {
		*p = window{accs: pending, swaps: int(swaps)}
	}
}

// state codes a run's running values and what it keeps of its first
// and last accesses. A run's counts must be ones its accesses can give:
// the tables it folds into hold metrics between 0 and 1.
func (r *openRun) state(c *state.Codec) {
	c.Varint(&r.n)
	c.Varint(&r.reads)
	c.Uvarint(&r.bytes)
	c.Uvarint(&r.size)
	c.Varint(&r.seqK)
	c.Varint(&r.seqK1)
	c.Bool(&r.random)
	c.F64(&r.first.T)
	c.Uvarint(&r.first.Offset)
	c.F64(&r.last.T)
	c.Uvarint(&r.last.Offset)
	state.Below(c, &r.last.Count, math.MaxUint32+1, "access byte count")
	c.Bool(&r.last.EOF)
	if r.reads < 0 || r.reads > r.n || r.seqK1 < 0 || r.seqK1 > r.seqK || r.seqK > max(r.n-1, 0) {
		c.Failf("run of %d accesses with %d reads and %d, %d sequential steps", r.n, r.reads, r.seqK, r.seqK1)
	}
}

// state codes the tables. Every run count is below 2^32, a kind's
// Table 3 count is the sum of its Figure 5 bins, and a bin's metric sum
// is at most one per run in it.
func (t *RunTables) state(c *state.Codec) {
	for i, row := range t.rows() {
		for j := range row {
			if c.Uvarint(&row[j]); i < 6 && row[j] >= fixedOne {
				c.Failf("run count %d out of range", row[j])
			}
		}
	}
	for k := range t.kinds {
		if sum(t.kinds[k][:]) != sum(t.binRuns[k][:]) {
			c.Failf("%d runs of kind %d in Table 3, %d in Figure 5", sum(t.kinds[k][:]), k, sum(t.binRuns[k][:]))
		}
	}
	for k := range t.metrics {
		for _, sums := range t.metrics[k] {
			for i, m := range sums {
				if m > t.binRuns[k][i]*fixedOne {
					c.Failf("metric sum %d over %d runs", m, t.binRuns[k][i])
				}
			}
		}
	}
}

// filesState codes each file's head and, from the cut on, its access
// count, pending windows and, when detecting runs, its first and open
// runs.
func (s *streams) filesState(c *state.Codec) {
	state.Map(c, &s.files, "file count", state.CompareFH, func(fh *core.FH, p **fileState) {
		c.FH(fh)
		if *p == nil {
			*p = s.newFile(*fh)
		}
		f := *p
		if f.head.state(c, s.wmax); !f.cut || c.Err() != nil {
			return
		}
		if c.Decoding() {
			f.done = s.headDone(f)
		}
		c.Varint(&f.n)
		for i, wins := 0, f.windows(s); i < len(wins); i++ {
			wins[i].state(c)
		}
		if s.detect {
			runs := f.runList()
			runs.first.state(c)
			runs.open.state(c)
		}
	})
}

// State codes the run-detection configuration, the files' state and
// the tables. A partial is only meaningful under the configuration it
// was built with.
func (d *RunDetector) State(c *state.Codec) {
	cfg := d.cfg
	c.F64(&cfg.ReorderWindow)
	c.F64(&cfg.IdleGap)
	c.Varint(&cfg.JumpBlocks)
	if cfg != d.cfg {
		c.Failf("run config (window=%v gap=%v k=%v) does not match receiver (window=%v gap=%v k=%v)",
			cfg.ReorderWindow, cfg.IdleGap, cfg.JumpBlocks, d.cfg.ReorderWindow, d.cfg.IdleGap, d.cfg.JumpBlocks)
		return
	}
	d.filesState(c)
	d.tables.state(c)
}

// State codes the window list, which must match the receiver's, and
// the files' state.
func (s *ReorderSweeper) State(c *state.Codec) {
	windows := s.windowsMS
	state.Slice(c, &windows, "window count", c.F64)
	if !slices.Equal(windows, s.windowsMS) {
		c.Failf("reorder windows %vms do not match receiver's %vms", windows, s.windowsMS)
		return
	}
	s.filesState(c)
}

// State codes the full mid-stream block-lifetime state: the window
// configuration (a partial is only meaningful under the window it was
// built with), result counters, live Phase-1 births and tracked sizes.
// A finalized stream has counted its end surplus and
// cannot resume, so it is rejected in both directions.
func (s *BlockLifeStream) State(c *state.Codec) {
	start, phase1End, margin, done := s.start, s.st.phase1End, s.st.margin, s.done
	c.F64(&start)
	c.F64(&phase1End)
	c.F64(&margin)
	c.Bool(&done)
	if start != s.start || phase1End != s.st.phase1End || margin != s.st.margin {
		c.Failf("block-life window (start=%v phase1End=%v margin=%v) does not match receiver (start=%v phase1End=%v margin=%v)",
			start, phase1End, margin, s.start, s.st.phase1End, s.st.margin)
		return
	}
	if done {
		c.Failf("block-life state was finalized before export; partials must be exported mid-stream")
		return
	}

	res := &s.st.res
	c.Varint(&res.Births)
	varintsState(c, res.BirthCause[:])
	c.Varint(&res.Deaths)
	varintsState(c, res.DeathCause[:])
	c.Varint(&res.EndSurplus)
	cdfState(c, res.Lifetimes)

	state.Map(c, &s.st.births, "birth file count", state.CompareFH, func(fh *core.FH, blocks *map[int64]float64) {
		c.FH(fh)
		state.Map(c, blocks, "birth block count", cmp.Compare[int64], func(b *int64, t *float64) {
			c.Varint(b)
			c.F64(t)
		})
	})
	sizesState(c, &s.st.sizes, "size count")
}

// State codes the peak-hour window, category map, and instance set.
func (p *PeakHourInstances) State(c *state.Codec) {
	from, to := p.From, p.To
	c.F64(&from)
	c.F64(&to)
	if from != p.From || to != p.To {
		c.Failf("peak-hour window [%v,%v) does not match receiver [%v,%v)", from, to, p.From, p.To)
		return
	}
	state.Map(c, &p.cat, "category count", state.CompareFH, func(fh *core.FH, cat *NameCategory) {
		c.FH(fh)
		state.Below(c, cat, uint64(numCategories), "name category")
	})
	setState(c, &p.instances, "instance count")
}

// State codes the mailbox/large-file handle sets and per-file byte
// counts.
func (m *MailboxShare) State(c *state.Codec) {
	setState(c, &m.mailboxFH, "mailbox handle count")
	setState(c, &m.big, "big handle count")
	sizesState(c, &m.bytes, "byte entry count")
}

// State codes the warm-up configuration, which must match the
// receiver's, the warm-up clock, the post-warmup counters, and the
// known-handle set.
func (c *HierarchyCoverage) State(sc *state.Codec) {
	warmup := c.warmup
	if sc.F64(&warmup); warmup != c.warmup {
		sc.Failf("hierarchy warmup %vs does not match receiver's %vs", warmup, c.warmup)
		return
	}
	sc.Bool(&c.started)
	sc.F64(&c.start)
	sc.Varint(&c.resolvable)
	sc.Varint(&c.total)
	setState(sc, &c.known, "known handle count")
}

// State codes the name-analysis stream: open instances and the folded
// per-category aggregate, behind the category count this build was
// compiled with.
func (n *NamesStream) State(c *state.Codec) {
	cats := uint64(numCategories)
	if c.Uvarint(&cats); cats != uint64(numCategories) {
		c.Failf("name-category count %d does not match this build's %d", cats, numCategories)
		return
	}

	state.Map(c, &n.lives, "open instance count", state.CompareFH, func(fh *core.FH, p **fileLife) {
		if *p == nil {
			*p = &fileLife{}
		}
		fl := *p
		c.FH(fh)
		c.String(&fl.name, "instance name")
		state.Below(c, &fl.cat, uint64(numCategories), "name category")
		c.F64(&fl.born)
		c.F64(&fl.died)
		c.Bool(&fl.deleted)
		c.Uvarint(&fl.maxSize)
		c.Varint(&fl.reads)
		c.Varint(&fl.writes)
		c.Bool(&fl.readSeq)
	})

	a := &n.agg
	for k := 0; k < int(numCategories); k++ {
		c.Varint(&a.created[k])
		c.Varint(&a.deleted[k])
		c.Varint(&a.readOps[k])
		c.Varint(&a.writeOps[k])
		cdfState(c, a.lifetimes[k])
		cdfState(c, a.sizes[k])
		varintsState(c, a.sizeHist[k][:])
		varintsState(c, a.lifeHist[k][:])
	}
	c.Varint(&a.lockDeleted)
	c.Varint(&a.totalDeleted)
}
