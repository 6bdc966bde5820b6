// Package analysis implements every analysis in the paper: summary
// activity statistics (Table 2), run detection with reorder-window
// sorting and the entire/sequential/random taxonomy (§4.2, Table 3,
// Figures 1 and 2), the sequentiality metric (§6.4, Figure 5),
// create-based block lifetimes (§5.2, Table 4, Figure 3), hourly load
// and peak-hour variance (§6.2, Table 5, Figure 4), filename-based
// attribute prediction (§6.3), and on-the-fly hierarchy reconstruction
// (§4.1.1).
package analysis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/core"
)

// BlockSize is the 8 KB granularity the paper rounds offsets and counts
// to.
const BlockSize = 8192

// Access is one read or write to one file, in wire order.
type Access struct {
	T      float64
	Offset uint64
	Count  uint32
	Write  bool
	EOF    bool   // reply said the access reached end-of-file
	Size   uint64 // post-op file size, when known
}

// Both §4.2 reducers stream per file. The reorder-window sort is the
// linear scan the paper describes: for each position i, the window is
// every later access j up to the first one failing T_j - t <= w (NaN
// fails), t being the T of the access at i as it stands after earlier
// swaps; the leftmost smallest offset in it is swapped into i if it is
// smaller. So position i is final as soon as an access arrives that
// fails the test after every earlier one passed. A file's window holds
// the accesses whose position is not yet final; the final ones go, in
// sorted order, into the file's open run, which keeps only running
// values and is closed at an idle gap or an EOF access. A closed run is
// classified and folded into the detector's RunTables at once, except
// the file's first run from its cut on, which a merge may still join to
// the run an earlier piece left open (see runList).
//
// A reducer may see a file from the middle of the stream: the pieces
// of a time-split trace are reduced independently and merged. An
// earlier piece's open windows may still swap accesses into this one's
// first positions, so each file's state begins with a head: its raw
// accesses up to the cut, the first access c that fails the window test
// against every access of the head. No scan from a position before c
// can cross c, so from c on the file streams as it would in one pass.
// The finish replays the head as the file's beginning (once, when the
// head is final: see headDone); a merge feeds the later piece's head
// through the earlier one's state, checks that the later cut closes
// every window the earlier piece still has open, and joins the earlier
// piece's open run to the run the cut begins. The check holds for
// pieces of one time-ordered trace (the joiner emits in call-time
// order); where it does not, the merge records an error.

// window is one file's pending reorder window: the accesses whose sort
// position is not yet final, in their current order.
//
// Scanning a window element by element costs a comparison per access
// in it, which on a mailbox read every ≈ 85 µs is a hundred per access
// at 10 ms. So the buffer is cut into blocks of sortBlock accesses,
// each summarized by its largest T, its leftmost smallest offset and
// whether all its T are finite. From a block boundary the scan reads a
// complete block through its summary when the block lies wholly inside
// the window, and steps through it element by element otherwise, as it
// does up to the first boundary and through the incomplete last block.
// A block whose T are all finite lies wholly inside the window exactly
// when its largest T passes the test: subtracting t is monotone over finite
// values, and maps all of them alike when t is infinite or NaN. Taking
// a summary's minimum only where it is strictly smaller keeps the
// leftmost one, so the scan picks the same access and stops at the same
// place; a block holding an infinite or NaN T is always stepped
// through. A summary is built the first time its block is read whole; a
// swap discards only the summary of the block it moved an access into
// (the block holding the oldest position is behind every later scan),
// and compacting the buffer discards them all. FuzzSortWindowEquivalence
// holds the result to the linear scan.
type window struct {
	accs   []Access // accs[h:] are pending; accs[h] holds the oldest open position
	h      int
	next   int            // where accs[h]'s scan resumes, when above h: accs[h+1:next] lie inside its window
	best   int            // the leftmost smallest offset in accs[h:next]
	swaps  int            // swaps made so far
	blocks []blockSummary // of accs, sortBlock accesses each
}

// sortBlock is the number of accesses a block summary covers.
const sortBlock = 16

// blockSummary is what a window scan reads of a block it takes whole.
type blockSummary struct {
	maxT   float64 // largest T; meaningful only when finite
	minOff uint64  // smallest offset
	minIdx int     // leftmost index holding minOff
	finite bool    // every T in the block is finite
	valid  bool    // the summary describes the block as it is now
}

// summarize describes the block of accs starting at start.
func summarize(accs []Access, start int) blockSummary {
	end := min(start+sortBlock, len(accs))
	s := blockSummary{maxT: math.Inf(-1), minOff: accs[start].Offset, minIdx: start, finite: true, valid: true}
	for k := start; k < end; k++ {
		a := &accs[k]
		if a.T-a.T != 0 { // ±Inf or NaN
			s.finite = false
		} else if a.T > s.maxT {
			s.maxT = a.T
		}
		if a.Offset < s.minOff {
			s.minOff, s.minIdx = a.Offset, k
		}
	}
	return s
}

// summary returns the summary of the complete block starting at j.
func (p *window) summary(j int) *blockSummary {
	k := j / sortBlock
	for len(p.blocks) <= k {
		p.blocks = append(p.blocks, blockSummary{})
	}
	s := &p.blocks[k]
	if !s.valid {
		*s = summarize(p.accs, j)
	}
	return s
}

// keepBuf is the largest buffer a window keeps beyond what its pending
// accesses need: one left by a burst goes back to the heap when the
// window empties, or shrinks when it is compacted.
const keepBuf = 64

func (p *window) push(a Access) {
	if len(p.accs) == cap(p.accs) && 2*p.h >= len(p.accs) {
		pending, buf := p.accs[p.h:], p.accs[:0]
		if cap(buf) > keepBuf && 4*len(pending) < cap(buf) {
			buf = make([]Access, 0, 2*len(pending))
		}
		p.accs, p.next, p.best, p.h = append(buf, pending...), p.next-p.h, p.best-p.h, 0
		p.blocks = p.blocks[:0]
	}
	p.accs = append(p.accs, a)
}

// pop returns the access of the oldest open position once its window
// has closed, or at eof whatever is left, one position per call.
func (p *window) pop(w float64, eof bool) (Access, bool) {
	accs, i, n := p.accs, p.h, len(p.accs)
	if i == n {
		return Access{}, false
	}
	t := accs[i].T
	j, best := p.next, p.best
	if j <= i {
		j, best = i+1, i
	}
	bestOff := accs[best].Offset
scan:
	for j < n {
		// A complete block from its boundary on, whole if it lies inside
		// the window...
		if j%sortBlock == 0 && j+sortBlock <= n && accs[j].T-t <= w {
			if s := p.summary(j); s.finite && s.maxT-t <= w {
				if s.minOff < bestOff {
					best, bestOff = s.minIdx, s.minOff
				}
				j += sortBlock
				continue
			}
		}
		// ...else element by element up to the next boundary.
		for stop := min(n, (j/sortBlock+1)*sortBlock); j < stop; j++ {
			if !(accs[j].T-t <= w) {
				break scan
			}
			if accs[j].Offset < bestOff {
				best, bestOff = j, accs[j].Offset
			}
		}
	}
	if j == n && !eof {
		p.next, p.best = j, best
		return Access{}, false
	}
	if best != i {
		accs[i], accs[best] = accs[best], accs[i]
		p.swaps++
		if k := best / sortBlock; k < len(p.blocks) {
			p.blocks[k].valid = false
		}
	}
	a := accs[i]
	p.h, p.next = i+1, 0
	if p.h == n { // empty: start over, in the same buffer if it is small
		p.h, p.accs, p.blocks = 0, p.accs[:0], nil
		if cap(p.accs) > keepBuf {
			p.accs = nil
		}
	}
	return a, true
}

// pending returns the accesses still in the window.
func (p *window) pending() []Access { return p.accs[p.h:] }

// closes reports whether an access at t fails the window test against
// every access of accs, so that no window opened at one of them reaches
// it.
func closes(t, w float64, accs []Access) bool {
	for i := range accs {
		if t-accs[i].T <= w {
			return false
		}
	}
	return true
}

// set makes p a copy of q, in p's buffer.
func (p *window) set(q *window) {
	*p = window{accs: append(p.accs[:0], q.pending()...), next: q.next - q.h, best: q.best - q.h, swaps: q.swaps}
}

// head is the start of a file's stretch of the stream: the raw accesses
// before the cut.
type head struct {
	accs       []Access
	minT, maxT float64 // over accs; a NaN can only be the first access, which every later one cuts
	cut        bool    // the cut has arrived: everything from it on streams
	cutT       float64 // the cut's T
}

// take appends a to the head, or reports false when a is the cut or
// comes after it. w is the widest reorder window. a is the cut when it
// fails the window test against every access of the head, and testing
// the head's smallest and largest T decides that exactly: t - T is
// monotone in T except where an infinite t meets an equal T, and there
// the test fails for T and passes for every other T if it passes for
// the other end.
func (h *head) take(a Access, w float64) bool {
	if h.cut {
		return false
	}
	if h.closedAt(a.T, w) {
		h.cut, h.cutT = true, a.T
		return false
	}
	if len(h.accs) == 0 {
		h.minT, h.maxT = a.T, a.T
	}
	h.minT, h.maxT = min(h.minT, a.T), max(h.maxT, a.T)
	h.accs = append(h.accs, a)
	return true
}

// closedAt reports whether an access at t would be the head's cut.
func (h *head) closedAt(t, w float64) bool {
	return len(h.accs) > 0 && !(t-h.maxT <= w) && !(t-h.minT <= w)
}

// streams is the state RunDetector and ReorderSweeper share: per file,
// a head, then one pending window per reorder window and, for run
// detection, the runs the first window's sorted order feeds.
type streams struct {
	ws     []float64 // the reorder windows, in seconds
	wmax   float64   // the widest, which bounds every file's head
	detect bool      // detect runs under cfg
	cfg    RunConfig
	k      int64 // cfg.JumpBlocks, at least 1
	files  map[core.FH]*fileState
	err    error
	// due lists the heads that grew, oldest first, each with its
	// length then: once the stream's time is past a head's windows, no
	// access of a time-ordered stream can extend it, and its headDone
	// is worked out. In any other order that is only done too early,
	// and undone by the next access to the head.
	due     []dueHead // due[dueAt:] are waiting
	dueAt   int
	scratch fileState // headDone's, reused
	// tables holds every run that closed past its file's first. While
	// a finish or a head's replay runs, sink takes every run that
	// closes instead.
	tables   RunTables
	sink     runSink
	headRuns runBuf // headDone's sink, reused
}

type dueHead struct {
	f *fileState
	n int
}

func newStreams(ws []float64, detect bool, cfg RunConfig) streams {
	s := streams{ws: ws, wmax: math.Inf(-1), detect: detect, cfg: cfg, k: max(cfg.JumpBlocks, 1),
		files: make(map[core.FH]*fileState)}
	for _, w := range ws {
		if w > s.wmax { // a NaN window closes at every access and bounds nothing
			s.wmax = w
		}
	}
	return s
}

// fileState is one file's state over a stretch of the stream.
type fileState struct {
	fileData
	// shared is set, atomically, once another reducer holds the state
	// too (see merge); then whichever changes it copies it first.
	shared int32
}

type fileData struct {
	fh core.FH
	head
	n    int64     // accesses from the cut on
	wins []window  // one per reorder window
	runs *runList  // from the cut on, made on first use; the first may continue the run an earlier stretch left open
	done *headDone // the head as the file's beginning, once it is final
}

// headDone is what a file's head comes to when the file begins with
// it: the head replayed and flushed, which its cut allows. It is made
// when the cut arrives, or earlier when the stream's time has passed
// the head's windows (see streams.due), so a finish replays only a head
// that may still grow; copies share it. Its runs stay unfolded: when
// the file turns out to continue an earlier piece, a merge feeds the
// head through that piece's state instead.
type headDone struct {
	n     int64
	swaps []int
	runs  []openRun // in stream order, the last one open
}

// runList is what a file keeps of its runs from the cut on: the first
// one once it has closed, because a merge may still join it to the run
// an earlier stretch left open (see join), and the open one. Every run
// closing after the first folds into the streams' tables.
type runList struct {
	first, open openRun
}

// runSink takes closed runs in the tables' place while a finish or a
// head's replay runs.
type runSink interface{ take(r *openRun) }

// runBuf collects runs, in the order they close.
type runBuf []openRun

func (b *runBuf) take(r *openRun) { *b = append(*b, *r) }

// close ends the open run.
func (l *runList) close(s *streams) {
	switch {
	case s.sink != nil:
		s.sink.take(&l.open)
	case l.first.n == 0:
		l.first = l.open
	default:
		s.tables.take(&l.open)
	}
	l.open = openRun{}
}

// extend appends a finalized access to the open run, closing it first
// if the access breaks it.
func (l *runList) extend(a *Access, s *streams) {
	if l.open.n > 0 && breaksRun(&l.open.last, a.T, s.cfg) {
		l.close(s)
	}
	l.open.add(a, s.k)
}

// append adds r, a run that follows l's runs: it continues l's open
// run unless its first access breaks it, as an access would. Runs that
// follow one another always break, so appending them one by one
// rebuilds a stretch.
func (l *runList) append(r *openRun, s *streams) {
	switch {
	case r.n == 0:
	case l.open.n > 0 && !breaksRun(&l.open.last, r.first.T, s.cfg):
		l.open.join(r, s.k)
	default:
		if l.open.n > 0 {
			l.close(s)
		}
		l.open = *r
	}
}

// newFile returns a file's empty state. Without windows nothing sorts,
// and a file streams from its first access.
func (s *streams) newFile(fh core.FH) *fileState {
	return &fileState{fileData: fileData{fh: fh, head: head{cut: len(s.ws) == 0}}}
}

// windows returns f's windows, made on first use: a file needs them
// only from its cut on, and most files never reach one.
func (f *fileState) windows(s *streams) []window {
	if len(f.wins) < len(s.ws) {
		f.wins = make([]window, len(s.ws))
	}
	return f.wins
}

// Add implements Reducer; metadata operations are ignored.
func (s *streams) Add(op *core.Op) {
	if !op.IsRead() && !op.IsWrite() {
		return
	}
	f := s.files[op.FH]
	if f == nil {
		f = s.newFile(op.FH)
		s.files[op.FH] = f
	}
	f = s.own(f)
	f.add(Access{T: op.T, Offset: op.Offset, Count: uint32(op.Bytes()), Write: op.IsWrite(), EOF: op.EOF, Size: op.Size}, s)
	for ; s.dueAt < len(s.due); s.dueAt++ {
		g := s.due[s.dueAt].f
		if s.files[g.fh] != g || g.cut || len(g.head.accs) != s.due[s.dueAt].n {
			continue // a copy, or a later entry, stands for it
		}
		if !g.closedAt(op.T, s.wmax) {
			break
		}
		s.own(g).done = s.headDone(g)
	}
}

func (f *fileState) add(a Access, s *streams) {
	if f.take(a, s.wmax) {
		f.done = nil
		if len(s.due) == cap(s.due) && 2*s.dueAt >= len(s.due) {
			s.due, s.dueAt = s.due[:copy(s.due, s.due[s.dueAt:])], 0
		}
		s.due = append(s.due, dueHead{f, len(f.head.accs)})
		return
	}
	if f.done == nil {
		f.done = s.headDone(f)
	}
	f.enter(a, s)
}

// enter takes a, an access from the cut on, into every window,
// finalizing the positions it closes, or straight into the runs when
// nothing sorts.
func (f *fileState) enter(a Access, s *streams) {
	f.n++
	if len(s.ws) == 0 {
		f.extend(&a, s)
	}
	for i, wins := 0, f.windows(s); i < len(wins); i++ {
		wins[i].push(a)
		f.settle(i, s, false)
	}
}

// settle finalizes the positions of window i whose windows have
// closed, or at eof all of them.
func (f *fileState) settle(i int, s *streams, eof bool) {
	for {
		b, ok := f.wins[i].pop(s.ws[i], eof)
		if !ok {
			return
		}
		f.extend(&b, s)
	}
}

func (f *fileState) flush(s *streams) {
	for i := range f.wins {
		f.settle(i, s, true)
	}
}

// extend takes a finalized access into the runs; the sweep keeps none.
func (f *fileState) extend(a *Access, s *streams) {
	if s.detect {
		f.runList().extend(a, s)
	}
}

func (f *fileState) runList() *runList {
	if f.runs == nil {
		f.runs = new(runList)
	}
	return f.runs
}

// follow extends f with g, the stretch of the same file that follows
// it.
func (f *fileState) follow(g *fileState, s *streams) error {
	for _, a := range g.head.accs {
		f.add(a, s)
	}
	if !g.cut {
		return nil
	}
	// g's cut must close every window f still has open: those of its
	// head, or those of its pending positions.
	closed := f.cut || closes(g.cutT, s.wmax, f.head.accs)
	for i := range f.wins {
		closed = closed && closes(g.cutT, s.ws[i], f.wins[i].pending())
	}
	if !closed {
		return fmt.Errorf("file %s: the partial cut at t=%v begins inside a reorder window the partial before it left open; merge partials of one time-ordered trace, in time order", f.fh, g.cutT)
	}
	if !f.cut {
		f.cut, f.cutT = true, g.cutT
		f.done = s.headDone(f)
	}
	f.flush(s)
	f.join(g, s)
	return nil
}

// join appends g's stretch from its cut on to f, whose windows g's cut
// has closed and f has flushed.
func (f *fileState) join(g *fileState, s *streams) {
	f.n += g.n
	for i, wins := 0, f.windows(s); i < len(wins); i++ {
		swaps := wins[i].swaps + g.wins[i].swaps
		wins[i].set(&g.wins[i])
		wins[i].swaps = swaps
	}
	// Only g's first run may continue f's open one: the runs between it
	// and g's open one are in g's tables, and its open one began with a
	// break.
	if m := g.runs; m != nil {
		l := f.runList()
		if m.first.n > 0 {
			l.append(&m.first, s)
			l.close(s)
		}
		l.append(&m.open, s)
	}
}

// own returns f ready to change: a state another reducer shares is
// copied first, and the copy takes its place here. The head only ever
// grows at its end, so the copy shares it, capped at its length: an
// append on either side reallocates instead of writing into the other's
// view.
func (s *streams) own(f *fileState) *fileState {
	if atomic.LoadInt32(&f.shared) == 0 {
		return f
	}
	c := &fileState{fileData: f.fileData}
	c.head.accs = f.head.accs[:len(f.head.accs):len(f.head.accs)]
	if f.runs != nil {
		runs := *f.runs
		c.runs = &runs
	}
	c.wins = make([]window, len(f.wins))
	for i := range f.wins {
		c.wins[i].set(&f.wins[i])
	}
	s.files[f.fh] = c
	return c
}

// merge shares the states of the files s lacks with src, copy on
// write (see own), so a fork costs a pointer per file, and adds src's
// run tables, which no handle keys.
func (s *streams) merge(src *streams, f Filter) {
	if f.unkeyed() {
		s.tables.merge(&src.tables)
	}
	s.files = roomFor(s.files, src.files, f.Owns)
	for fh, g := range src.files {
		if !f.owns(fh) {
			continue
		}
		if mine := s.files[fh]; mine != nil {
			if err := s.own(mine).follow(g, s); err != nil && s.err == nil {
				s.err = err
			}
			continue
		}
		atomic.StoreInt32(&g.shared, 1)
		s.files[fh] = g
	}
}

// Err reports the first Merge whose source did not continue the
// receiver's stream; see the package comment on heads and cuts.
func (s *streams) Err() error { return s.err }

// replay runs accs through fin as the whole of a file, reusing fin's
// buffers.
func (s *streams) replay(accs []Access, fin *fileState) {
	for i := range fin.wins {
		fin.wins[i] = window{accs: fin.wins[i].accs[:0]}
	}
	runs := fin.runList()
	*runs = runList{}
	fin.fileData = fileData{head: head{cut: true}, wins: fin.wins, runs: runs}
	for _, a := range accs {
		fin.enter(a, s)
	}
	fin.flush(s)
}

func (s *streams) headDone(f *fileState) *headDone {
	fin := &s.scratch
	s.headRuns, s.sink = s.headRuns[:0], &s.headRuns
	s.replay(f.head.accs, fin)
	s.sink = nil
	d := &headDone{n: fin.n}
	if fin.runs.open.n > 0 {
		d.runs = append(slices.Clone(s.headRuns), fin.runs.open)
	}
	for i := range fin.wins {
		d.swaps = append(d.swaps, fin.wins[i].swaps)
	}
	return d
}

// finish runs f to the end of the stream in fin: its head as the
// file's beginning, then its stretch from the cut on, every window
// flushed.
func (s *streams) finish(f, fin *fileState) {
	if f.done == nil { // only a head that is not cut lacks it
		s.replay(f.head.accs, fin)
		return
	}
	s.replay(nil, fin)
	fin.n = f.done.n
	for i := range f.done.runs {
		fin.runs.append(&f.done.runs[i], s)
	}
	for i, wins := 0, fin.windows(s); i < len(wins); i++ {
		wins[i].swaps = f.done.swaps[i]
	}
	if f.cut {
		fin.join(f, s) // a file's own cut closes its head, which State checks on decoding
		fin.flush(s)
	}
}

// ReorderSweepPoint is one point of Figure 1.
type ReorderSweepPoint struct {
	WindowMS float64
	// SwappedPct is the percentage of accesses that were swapped by
	// the sorting pass at this window size.
	SwappedPct float64
}

// ReorderSweeper is the Figure 1 reducer: per file, one pending window
// and one swap count per window size. Sorting windows apply per file,
// so the state partitions by handle.
type ReorderSweeper struct {
	windowsMS []float64
	streams
}

// NewReorderSweeper returns an empty sweep over the given window sizes
// (milliseconds).
func NewReorderSweeper(windowsMS []float64) *ReorderSweeper {
	ws := make([]float64, len(windowsMS))
	for i, wms := range windowsMS {
		ws[i] = wms / 1000
	}
	return &ReorderSweeper{windowsMS: windowsMS, streams: newStreams(ws, false, RunConfig{})}
}

// Merge implements Reducer.
func (s *ReorderSweeper) Merge(src *ReorderSweeper, f Filter) { s.merge(&src.streams, f) }

// Points runs the sweep to the end of everything added so far. Swap
// counts are integers, so the sum does not depend on the order of the
// files.
func (s *ReorderSweeper) Points() []ReorderSweepPoint {
	sums := make([]int, len(s.ws))
	var total int64
	var fin fileState
	for _, f := range s.files {
		s.finish(f, &fin)
		total += fin.n
		for i := range fin.wins {
			sums[i] += fin.wins[i].swaps
		}
	}
	out := make([]ReorderSweepPoint, 0, len(s.ws))
	for wi, wms := range s.windowsMS {
		out = append(out, ReorderSweepPoint{WindowMS: wms, SwappedPct: pct(int64(sums[wi]), total)})
	}
	return out
}

// Run kinds.
type RunKind int

// Run kind values.
const (
	RunRead RunKind = iota
	RunWrite
	RunReadWrite
)

// Run patterns.
type RunPattern int

// Run pattern values (the entire/sequential/random taxonomy).
const (
	PatternEntire RunPattern = iota
	PatternSequential
	PatternRandom
)

// RunConfig controls run detection.
type RunConfig struct {
	// ReorderWindow is the §4.2 sorting window in seconds (0 disables
	// sorting — the "raw" columns of Table 3).
	ReorderWindow float64
	// IdleGap breaks a run when consecutive accesses are farther apart
	// (30s in the paper).
	IdleGap float64
	// JumpBlocks is k: seeks of fewer than k 8 KB blocks do not break
	// sequentiality (10 in the paper; 1 = strict).
	JumpBlocks int64
}

// DefaultRunConfig is the paper's processed configuration for the given
// reorder window (5 ms for EECS, 10 ms for CAMPUS).
func DefaultRunConfig(windowMS float64) RunConfig {
	return RunConfig{ReorderWindow: windowMS / 1000, IdleGap: 30, JumpBlocks: 10}
}

// runStart is what a run keeps of its first access: what breaksRun and
// step read of the access that follows another.
type runStart struct {
	T      float64
	Offset uint64
}

// runEnd is what a run keeps of its last access: what breaksRun and
// step read of the access that another follows, and what the entire
// test reads.
type runEnd struct {
	T      float64
	Offset uint64
	Count  uint32
	EOF    bool
}

// breaksRun applies the §4.2 run-break rules: a new run begins after an
// access that referenced end-of-file, or after an idle gap.
func breaksRun(prev *runEnd, nextT float64, cfg RunConfig) bool {
	return prev.EOF || (cfg.IdleGap > 0 && nextT-prev.T > cfg.IdleGap)
}

// openRun is a run's running values: everything its classification
// reads of its accesses, kept as they arrive in sorted order.
type openRun struct {
	first       runStart
	last        runEnd
	n, reads    int64
	bytes       uint64
	size        uint64 // largest file size seen
	seqK, seqK1 int64  // steps of under k blocks, of zero blocks
	random      bool   // some step broke sequentiality
}

// step accounts for the step from prev to an access at offset next, k
// being the jump tolerance in blocks.
func (r *openRun) step(prev *runEnd, next uint64, k int64) {
	prevEnd := prev.Offset + uint64(prev.Count)
	// Sequentiality (§4.2): each request begins where the previous one
	// left off, by byte offset, with forward slack of up to k 8 KB
	// blocks (offsets and counts round to blocks, so exact byte-appends
	// within a block are sequential too).
	if next < prevEnd || next-prevEnd >= uint64(k)*BlockSize {
		r.random = true
	}
	// The k-consecutive metric works on blocks, counting small jumps in
	// either direction (§6.4); counts round up to whole blocks.
	gap := int64(next/BlockSize) - int64((prevEnd+BlockSize-1)/BlockSize)
	if gap < 0 {
		gap = -gap
	}
	if gap < k {
		r.seqK++
	}
	if gap == 0 {
		r.seqK1++
	}
}

func (r *openRun) add(a *Access, k int64) {
	if r.n == 0 {
		r.first = runStart{a.T, a.Offset}
	} else {
		r.step(&r.last, a.Offset, k)
	}
	r.last = runEnd{a.T, a.Offset, a.Count, a.EOF}
	r.n++
	if !a.Write {
		r.reads++
	}
	r.bytes += uint64(a.Count)
	r.size = max(r.size, a.Size)
}

// join appends s, a run that continues r without a break.
func (r *openRun) join(s *openRun, k int64) {
	r.step(&r.last, s.first.Offset, k)
	r.random = r.random || s.random
	r.seqK += s.seqK
	r.seqK1 += s.seqK1
	r.last = s.last
	r.n += s.n
	r.reads += s.reads
	r.bytes += s.bytes
	r.size = max(r.size, s.size)
}

// run is a closed run as the tables read it.
type run struct {
	kind    RunKind
	pattern RunPattern
	// bytes is the total bytes accessed in the run, fileSize the largest
	// file size observed during it.
	bytes, fileSize uint64
	// metric is the sequentiality metric with the configured jump
	// tolerance; metricK1 is the strict (k=1) variant.
	metric, metricK1 float64
}

// classify classifies the run.
func (r *openRun) classify() run {
	out := run{bytes: r.bytes, fileSize: r.size}
	switch {
	case r.reads == r.n:
		out.kind = RunRead
	case r.reads == 0:
		out.kind = RunWrite
	default:
		out.kind = RunReadWrite
	}
	if steps := r.n - 1; steps > 0 {
		out.metric = float64(r.seqK) / float64(steps)
		out.metricK1 = float64(r.seqK1) / float64(steps)
	} else {
		out.metric, out.metricK1 = 1, 1
	}

	// Entire: sequential from offset 0 through end-of-file.
	coversWhole := r.first.Offset == 0 &&
		(r.last.EOF || (r.size > 0 && r.last.Offset+uint64(r.last.Count) >= r.size))
	switch {
	case r.n == 1 && coversWhole:
		// Singleton runs: entire if they access the whole file,
		// sequential otherwise (§5.1, Table 3 note).
		out.pattern = PatternEntire
	case r.n == 1:
		out.pattern = PatternSequential
	case !r.random && coversWhole:
		out.pattern = PatternEntire
	case !r.random:
		out.pattern = PatternSequential
	default:
		out.pattern = PatternRandom
	}
	return out
}

// The bins of Figures 2 and 5: file sizes from 1 KB to 256 MB and run
// sizes from 16 KB to 64 MB, powers of two, each bin holding what lies
// above the one before and at most its bound; the last holds the rest.
const (
	minSizeExp, sizeBins = 10, 19
	minRunExp, runBins   = 14, 13
)

// bin returns the bin of v among n bins whose first bound is 2^minExp:
// the first whose bound is at least v, or the last.
func bin(v uint64, minExp, n int) int {
	if v <= 1<<uint(minExp) {
		return 0
	}
	return min(bits.Len64(v-1)-minExp, n-1)
}

// fixedOne is 1 in the fixed point the metric sums are kept in.
const fixedOne = 1 << 32

// RunTables is what Table 3 and Figures 2 and 5 read of a set of runs:
// fixed-size integer sums that each run adds to as it closes, so that
// they come out the same in any order and merge by adding. Sequentiality
// metrics are summed in fixed point, round(metric × 2^32), exact for
// fewer than 2^32 runs in a bin.
type RunTables struct {
	kinds   [3][3]uint64          // Table 3: runs by kind, then pattern
	binRuns [3][runBins]uint64    // Figure 5: runs by kind, then run-size bin
	bytes   [3][sizeBins]uint64   // Figure 2: bytes by pattern, then file-size bin
	metrics [2][2][runBins]uint64 // Figure 5: read and write runs' metric, then strict metric, sums by run-size bin
}

// rows returns every row of t, the six rows of run counts first.
func (t *RunTables) rows() [][]uint64 {
	return [][]uint64{t.kinds[0][:], t.kinds[1][:], t.kinds[2][:],
		t.binRuns[0][:], t.binRuns[1][:], t.binRuns[2][:],
		t.bytes[0][:], t.bytes[1][:], t.bytes[2][:],
		t.metrics[0][0][:], t.metrics[0][1][:], t.metrics[1][0][:], t.metrics[1][1][:]}
}

func sum(ns []uint64) (n uint64) {
	for _, v := range ns {
		n += v
	}
	return n
}

// take classifies r and adds it.
func (t *RunTables) take(r *openRun) { t.add(r.classify()) }

func (t *RunTables) add(r run) {
	t.kinds[r.kind][r.pattern]++
	if r.bytes > 0 {
		t.bytes[r.pattern][bin(r.fileSize, minSizeExp, sizeBins)] += r.bytes
	}
	b := bin(r.bytes, minRunExp, runBins)
	t.binRuns[r.kind][b]++
	if r.kind != RunReadWrite {
		t.metrics[r.kind][0][b] += uint64(math.Round(r.metric * fixedOne))
		t.metrics[r.kind][1][b] += uint64(math.Round(r.metricK1 * fixedOne))
	}
}

// merge adds u to t.
func (t *RunTables) merge(u *RunTables) {
	theirs := u.rows()
	for i, row := range t.rows() {
		for j := range row {
			row[j] += theirs[i][j]
		}
	}
}

// RunDetector is the Table 3 / Figure 2 / Figure 5 reducer: per file, a
// pending window and the runs it feeds, under one run-detection
// configuration, and the tables the closed runs fold into. Runs never
// span files, so the per-file state partitions by handle.
type RunDetector struct{ streams }

// NewRunDetector returns an empty detector.
func NewRunDetector(cfg RunConfig) *RunDetector {
	var ws []float64
	if cfg.ReorderWindow > 0 {
		ws = []float64{cfg.ReorderWindow}
	}
	return &RunDetector{newStreams(ws, true, cfg)}
}

// Merge implements Reducer.
func (d *RunDetector) Merge(src *RunDetector, f Filter) { d.merge(&src.streams, f) }

// Tables returns the run tables of everything added so far: the runs
// already folded, and each file's head, first and open runs, folded into
// a copy by a copy of the detector, so that finishing changes nothing.
func (d *RunDetector) Tables() RunTables {
	t, s := d.tables, d.streams
	s.sink = &t
	var fin fileState
	for _, f := range d.files {
		if s.finish(f, &fin); fin.runs.open.n > 0 {
			t.take(&fin.runs.open)
		}
	}
	return t
}

// RunTable is the Table 3 presentation: run-count percentages by kind
// and pattern.
type RunTable struct {
	// ReadPct, WritePct, ReadWritePct are percentages of all runs.
	ReadPct, WritePct, ReadWritePct float64
	// Pattern percentages within each kind: [entire, sequential,
	// random].
	Read, Write, ReadWrite [3]float64
	TotalRuns              int
}

// pct is n as a percentage of d, 0 when d is.
func pct[T int | int64 | uint64](n, d T) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Tabulate builds Table 3.
func (t *RunTables) Tabulate() RunTable {
	total := sum(t.kinds[0][:]) + sum(t.kinds[1][:]) + sum(t.kinds[2][:])
	tab := RunTable{TotalRuns: int(total)}
	kindPct := []*float64{&tab.ReadPct, &tab.WritePct, &tab.ReadWritePct}
	for k, split := range []*[3]float64{&tab.Read, &tab.Write, &tab.ReadWrite} {
		n := sum(t.kinds[k][:])
		*kindPct[k] = pct(n, total)
		for p := range split {
			split[p] = pct(t.kinds[k][p], n)
		}
	}
	return tab
}

// SizeProfilePoint is one file-size bucket of Figure 2.
type SizeProfilePoint struct {
	// SizeCeil is the bucket's upper file-size bound (bytes, powers of
	// two).
	SizeCeil uint64
	// Cumulative percentage of all accessed bytes from files of size
	// <= SizeCeil, total and per pattern.
	TotalPct, EntirePct, SequentialPct, RandomPct float64
}

// SizeProfile builds Figure 2: the cumulative percentage of bytes
// accessed, by the size of the file and the pattern of the run moving
// them.
func (t *RunTables) SizeProfile() []SizeProfilePoint {
	total := sum(t.bytes[0][:]) + sum(t.bytes[1][:]) + sum(t.bytes[2][:])
	if total == 0 {
		return nil
	}
	out := make([]SizeProfilePoint, 0, sizeBins)
	var cum [3]uint64
	for i := 0; i < sizeBins; i++ {
		for p := range cum {
			cum[p] += t.bytes[p][i]
		}
		out = append(out, SizeProfilePoint{
			SizeCeil:      1 << uint(i+minSizeExp),
			TotalPct:      pct(sum(cum[:]), total),
			EntirePct:     pct(cum[PatternEntire], total),
			SequentialPct: pct(cum[PatternSequential], total),
			RandomPct:     pct(cum[PatternRandom], total),
		})
	}
	return out
}

// SeqMetricPoint is one run-size bucket of Figure 5.
type SeqMetricPoint struct {
	// BytesCeil is the run-size bucket bound (16 KB .. 64 MB).
	BytesCeil uint64
	// Read/Write metrics averaged over runs in the bucket, with small
	// jumps allowed (k=10) and not (k=1). NaN-free: buckets with no
	// runs report -1.
	ReadK10, ReadK1, WriteK10, WriteK1 float64
	// CumRunsPct is the cumulative percentage of runs with size <=
	// BytesCeil (the bottom panels of Figure 5).
	CumRunsPct, CumReadRunsPct, CumWriteRunsPct float64
}

// SequentialityProfile builds Figure 5 from runs detected with
// JumpBlocks=10, whose metric sums supply the k=10 curves; the strict
// sums supply the k=1 ones.
func (t *RunTables) SequentialityProfile() []SeqMetricPoint {
	var totals, cum [3]uint64
	for k := range t.binRuns {
		totals[k] = sum(t.binRuns[k][:])
	}
	mean := func(kind RunKind, m, i int) float64 {
		if n := t.binRuns[kind][i]; n > 0 {
			return float64(t.metrics[kind][m][i]) / fixedOne / float64(n)
		}
		return -1
	}
	out := make([]SeqMetricPoint, 0, runBins)
	for i := 0; i < runBins; i++ {
		for k := range cum {
			cum[k] += t.binRuns[k][i]
		}
		out = append(out, SeqMetricPoint{BytesCeil: 1 << uint(i+minRunExp),
			ReadK10: mean(RunRead, 0, i), ReadK1: mean(RunRead, 1, i),
			WriteK10: mean(RunWrite, 0, i), WriteK1: mean(RunWrite, 1, i),
			CumRunsPct:      pct(sum(cum[:]), sum(totals[:])),
			CumReadRunsPct:  pct(cum[RunRead], totals[RunRead]),
			CumWriteRunsPct: pct(cum[RunWrite], totals[RunWrite]),
		})
	}
	return out
}
