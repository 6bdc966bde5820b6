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

func (a nameBinding) compare(b nameBinding) int {
	return state.CompareBinding(a.dir, a.name, b.dir, b.name)
}

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

// bindingsState codes a (directory, name) → handle map.
func bindingsState(c *state.Codec, m *map[nameBinding]core.FH, what string) {
	state.Map(c, m, what, nameBinding.compare, func(nb *nameBinding, fh *core.FH) {
		c.FH(&nb.dir)
		c.String(&nb.name, "name")
		c.FH(fh)
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

// state codes the per-file access lists.
func (m *AccessMap) state(c *state.Codec) {
	state.Map(c, m, "file count", state.CompareFH, func(fh *core.FH, accs *[]Access) {
		c.FH(fh)
		state.Slice(c, accs, "access count", func(a *Access) {
			c.F64(&a.T)
			c.Uvarint(&a.Offset)
			state.Below(c, &a.Count, math.MaxUint32+1, "access byte count")
			c.Bool(&a.Write)
			c.Bool(&a.EOF)
			c.Uvarint(&a.Size)
		})
	})
}

// State codes the run-detection configuration and the per-file access
// lists. A partial is only meaningful under the configuration it was
// built with.
func (r *RunDetector) State(c *state.Codec) {
	cfg := r.cfg
	c.F64(&cfg.ReorderWindow)
	c.F64(&cfg.IdleGap)
	c.Varint(&cfg.JumpBlocks)
	if cfg != r.cfg {
		c.Failf("run config (window=%v gap=%v k=%v) does not match receiver (window=%v gap=%v k=%v)",
			cfg.ReorderWindow, cfg.IdleGap, cfg.JumpBlocks, r.cfg.ReorderWindow, r.cfg.IdleGap, r.cfg.JumpBlocks)
		return
	}
	r.files.state(c)
}

// State codes the window list, which must match the receiver's, and the
// per-file access lists.
func (r *ReorderSweeper) State(c *state.Codec) {
	windows := r.windowsMS
	state.Slice(c, &windows, "window count", c.F64)
	if !slices.Equal(windows, r.windowsMS) {
		c.Failf("reorder windows %vms do not match receiver's %vms", windows, r.windowsMS)
		return
	}
	r.files.state(c)
}

// State codes the full mid-stream block-lifetime state: the window
// configuration (a partial is only meaningful under the window it was
// built with), result counters, live Phase-1 births, tracked sizes and
// name bindings. A finalized stream has counted its end surplus and
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
	bindingsState(c, &s.st.names, "name binding count")
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

// state codes the reconstructed namespace: parent edges, the reverse
// index exactly as it stands (stale entries and all — resolve's repair
// path depends on the index state, so a faithful copy keeps the resumed
// run deterministic), the known-handle set, and the coverage counters.
func (h *Hierarchy) state(c *state.Codec) {
	state.Map(c, &h.parent, "parent edge count", state.CompareFH, func(fh *core.FH, nb *nameBinding) {
		c.FH(fh)
		c.FH(&nb.dir)
		c.String(&nb.name, "edge name")
	})
	bindingsState(c, &h.byEdge, "edge index count")
	setState(c, &h.known, "known handle count")
	c.Varint(&h.resolvable)
	c.Varint(&h.total)
}

// State codes the warm-up configuration, which must match the
// receiver's, the warm-up clock, the post-warmup counters, and the
// namespace.
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
	c.h.state(sc)
}

// State codes the name-analysis stream: open instances, name bindings,
// and the folded per-category aggregate, behind the category count this
// build was compiled with.
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
	bindingsState(c, &n.names, "name binding count")

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
