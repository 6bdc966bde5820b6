package analysis

import (
	"maps"

	"repro/internal/core"
	"repro/internal/stats"
)

// Block lifetime analysis using Roselli's create-based method as the
// paper applies it (§5.2): Phase 1 records births and deaths; Phase 2
// (the "end margin") records only deaths; deaths with lifespans longer
// than the margin are discarded to remove sampling bias; blocks that
// outlive Phase 2 are the "end surplus".

// Birth causes.
const (
	BirthWrite = iota
	BirthExtension
	numBirthCauses
)

// Death causes.
const (
	DeathOverwrite = iota
	DeathTruncate
	DeathDelete
	numDeathCauses
)

// BlockLifeResult is the Table 4 + Figure 3 output.
type BlockLifeResult struct {
	// Births and Deaths count blocks; Table 4 reports the causes as
	// percentages.
	Births     int64
	BirthCause [numBirthCauses]int64
	Deaths     int64
	DeathCause [numDeathCauses]int64
	// EndSurplus counts Phase 1 births still alive at the end of
	// Phase 2; EndSurplusPct is relative to births.
	EndSurplus int64
	// Lifetimes is the distribution of block lifespans (Figure 3).
	Lifetimes *stats.CDF
}

// BirthPct reports the percentage of births with the given cause.
func (r *BlockLifeResult) BirthPct(cause int) float64 {
	return pct(r.BirthCause[cause], r.Births)
}

// DeathPct reports the percentage of deaths with the given cause.
func (r *BlockLifeResult) DeathPct(cause int) float64 {
	return pct(r.DeathCause[cause], r.Deaths)
}

// EndSurplusPct reports the end surplus as a percentage of births.
func (r *BlockLifeResult) EndSurplusPct() float64 {
	return pct(r.EndSurplus, r.Births)
}

// blockLifeState tracks one analysis window.
type blockLifeState struct {
	res BlockLifeResult
	// births maps fh → block → birth time (Phase 1 births only).
	births map[core.FH]map[int64]float64
	// sizes tracks the last known size (in bytes) per fh, from any
	// attribute-bearing reply.
	sizes map[core.FH]uint64

	phase1End float64
	margin    float64
}

// BlockLifeStream is the block-lifetime reducer: feed it time-ordered
// operations with Add and read the analysis with Result.
// The sharded pipeline runs one stream per shard (the per-file state
// partitions cleanly by handle) and merges their states before
// finishing. It is a sequential reducer: phases are positions in the
// stream, so partials compose only as a resume chain.
type BlockLifeStream struct {
	st    blockLifeState
	start float64
	end   float64
	done  bool
}

// NewBlockLifeStream prepares a create-based analysis: Phase 1 covers
// [start, start+phase), the end margin covers [start+phase,
// start+phase+margin). The paper uses 24-hour phases with 24-hour
// margins, 9am to 9am.
func NewBlockLifeStream(start, phase, margin float64) *BlockLifeStream {
	s := &BlockLifeStream{
		st: blockLifeState{
			births:    make(map[core.FH]map[int64]float64),
			sizes:     make(map[core.FH]uint64),
			phase1End: start + phase,
			margin:    margin,
		},
		start: start,
		end:   start + phase + margin,
	}
	s.st.res.Lifetimes = &stats.CDF{}
	return s
}

// Add folds one operation into the analysis. Ops must arrive in time
// order; ops past the analysis window are ignored.
func (s *BlockLifeStream) Add(op *core.Op) {
	if s.done || op.T >= s.end {
		return
	}
	// Size tracking runs over the whole stream, pre-window ops
	// included, so deletions and truncations know what they kill.
	if op.T < s.start {
		s.st.trackSizes(op)
		return
	}
	s.st.handle(op)
	s.st.trackSizes(op)
}

// Result finalizes the stream (counting the end surplus) and returns
// the analysis. After Result, further Add calls are no-ops.
func (s *BlockLifeStream) Result() *BlockLifeResult {
	if !s.done {
		// End surplus: Phase-1 births still alive.
		for _, blocks := range s.st.births {
			s.st.res.EndSurplus += int64(len(blocks))
		}
		s.done = true
	}
	return &s.st.res
}

// Merge folds src's mid-stream state into s: result counters and
// lifetime samples sum, live births and tracked sizes follow their
// file.
func (s *BlockLifeStream) Merge(src *BlockLifeStream, f Filter) {
	if f.unkeyed() {
		dst, from := &s.st.res, &src.st.res
		dst.Births += from.Births
		for i, c := range from.BirthCause {
			dst.BirthCause[i] += c
		}
		dst.Deaths += from.Deaths
		for i, c := range from.DeathCause {
			dst.DeathCause[i] += c
		}
		dst.EndSurplus += from.EndSurplus
		dst.Lifetimes.Merge(from.Lifetimes)
	}
	s.st.births = roomFor(s.st.births, src.st.births, f.Owns)
	for fh, blocks := range src.st.births {
		if !f.owns(fh) {
			continue
		}
		if cur := s.st.births[fh]; cur != nil {
			maps.Copy(cur, blocks)
		} else {
			s.st.births[fh] = maps.Clone(blocks)
		}
	}
	s.st.sizes = overlay(s.st.sizes, src.st.sizes, f.Owns)
}

// trackSizes keeps the last observed size per file.
func (st *blockLifeState) trackSizes(op *core.Op) {
	if !op.Replied {
		return
	}
	switch op.Proc {
	case core.ProcRemove:
		// handled in handle()
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir:
		// The attributes belong to the looked-up/created object.
		if op.NewFH != 0 {
			st.sizes[op.NewFH] = op.Size
		}
	default:
		if op.Size != 0 || op.Proc == core.ProcSetattr || op.Proc == core.ProcWrite {
			st.sizes[op.FH] = op.Size
		}
	}
}

func blocksOf(bytes uint64) int64 { return int64((bytes + BlockSize - 1) / BlockSize) }

func (st *blockLifeState) handle(op *core.Op) {
	if !op.OK() {
		return
	}
	switch op.Proc {
	case core.ProcWrite:
		st.handleWrite(op)
	case core.ProcSetattr:
		if op.HasSet {
			st.handleTruncate(op)
		}
	case core.ProcCreate:
		// CREATE with size 0 truncates an existing file.
		if op.HasSet && op.SetSize == 0 && op.NewFH != 0 {
			if old, ok := st.sizes[op.NewFH]; ok && old > 0 {
				st.killRange(op.NewFH, 0, blocksOf(old), op.T, DeathTruncate)
			}
		}
	case core.ProcRemove:
		// The router resolved the name (§4.1.1); Target is zero when
		// the trace never bound it, and then no tracked file dies.
		if fh := op.Target; fh != 0 {
			st.killRange(fh, 0, blocksOf(st.sizes[fh]), op.T, DeathDelete)
			delete(st.sizes, fh)
		}
	}
}

// handleWrite processes block births and overwrite deaths for one
// write. The pre-operation size comes from wcc data when present, else
// from tracked state.
func (st *blockLifeState) handleWrite(op *core.Op) {
	preSize, havePre := op.PreSize, op.HasPre
	if !havePre {
		preSize = st.sizes[op.FH]
	}
	preBlocks := blocksOf(preSize)
	start := int64(op.Offset / BlockSize)
	end := int64((op.Offset + op.Bytes() + BlockSize - 1) / BlockSize)

	// Extension births: the hole between the old EOF and the write
	// start (lseek-past-EOF semantics, §5.2.2).
	if start > preBlocks {
		for b := preBlocks; b < start; b++ {
			st.birth(op.FH, b, op.T, BirthExtension)
		}
	}
	for b := start; b < end; b++ {
		if b < preBlocks {
			// Overwrite: the old block dies, a new one is born.
			st.death(op.FH, b, op.T, DeathOverwrite)
		}
		st.birth(op.FH, b, op.T, BirthWrite)
	}
}

func (st *blockLifeState) handleTruncate(op *core.Op) {
	var oldSize uint64
	if op.HasPre {
		oldSize = op.PreSize
	} else {
		oldSize = st.sizes[op.FH]
	}
	newBlocks := blocksOf(op.SetSize)
	oldBlocks := blocksOf(oldSize)
	if newBlocks < oldBlocks {
		st.killRange(op.FH, newBlocks, oldBlocks, op.T, DeathTruncate)
	}
}

func (st *blockLifeState) killRange(fh core.FH, from, to int64, t float64, cause int) {
	for b := from; b < to; b++ {
		st.death(fh, b, t, cause)
	}
}

func (st *blockLifeState) birth(fh core.FH, b int64, t float64, cause int) {
	if t >= st.phase1End {
		return // Phase 2 records deaths only
	}
	m := st.births[fh]
	if m == nil {
		m = make(map[int64]float64)
		st.births[fh] = m
	}
	if _, alive := m[b]; alive {
		// Rebirth without an observed death (shouldn't happen; guard).
		return
	}
	m[b] = t
	st.res.Births++
	st.res.BirthCause[cause]++
}

func (st *blockLifeState) death(fh core.FH, b int64, t float64, cause int) {
	m := st.births[fh]
	if m == nil {
		return
	}
	born, ok := m[b]
	if !ok {
		return // born before Phase 1; not tracked
	}
	delete(m, b)
	life := t - born
	if life > st.margin {
		// Discard to remove sampling bias (§5.2).
		return
	}
	st.res.Deaths++
	st.res.DeathCause[cause]++
	st.res.Lifetimes.Add(life)
}
