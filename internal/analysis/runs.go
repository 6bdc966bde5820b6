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
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
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

// endBlock returns the block just past the access, with counts rounded
// up to whole blocks as §4.2 prescribes.
func (a Access) endBlock() int64 {
	return int64((a.Offset + uint64(a.Count) + BlockSize - 1) / BlockSize)
}

func (a Access) startBlock() int64 { return int64(a.Offset / BlockSize) }

// AccessMap groups data accesses by file handle, in trace order:
// shards of the pipeline each accumulate one AccessMap for the files
// they own. Keys are interned
// handle IDs, so the per-op map update hashes one integer instead of a
// hex string.
type AccessMap map[core.FH][]Access

// Add appends op's data access to its file's list; metadata ops are
// ignored.
func (m AccessMap) Add(op *core.Op) {
	if !op.IsRead() && !op.IsWrite() {
		return
	}
	m[op.FH] = append(m[op.FH], Access{
		T:      op.T,
		Offset: op.Offset,
		Count:  uint32(op.Bytes()),
		Write:  op.IsWrite(),
		EOF:    op.EOF,
		Size:   op.Size,
	})
}

// merge appends src's lists for the handles f owns to m's and returns
// the result; src must cover a later stretch of the trace than m does
// for any file they share. A file m has not seen shares src's backing
// array, capped at its current length (three-index slice), so the copy
// costs O(files), not O(accesses), and an append on either side
// reallocates instead of writing into the other's view. That is safe
// because access lists are append-only: nothing mutates an element in
// place. The finish never writes them either: the reorder pass runs on
// a copy, and a file keeps its sorted copy only when the pass moved
// something. Every other file's runs are capped views of its list here,
// which a later Add appends past. A snapshot's finish keeps the sorted
// copies, and the sweep's swap counts, in the live analyzer's
// FinishCache, so the next snapshot re-sorts only the files that grew.
func (m AccessMap) merge(src AccessMap, f Filter) AccessMap {
	m = roomFor(m, src, f.Owns)
	for fh, accs := range src {
		if !f.owns(fh) {
			continue
		}
		if cur, ok := m[fh]; ok {
			m[fh] = append(cur, accs...)
		} else {
			m[fh] = accs[:len(accs):len(accs)]
		}
	}
	return m
}

// SortWindow partially sorts accesses in ascending offset order within a
// temporal window of w seconds (§4.2's "reorder window"), undoing
// nfsiod reordering without masking true randomness. It returns the
// number of swaps performed.
//
// The pass is the linear scan the paper describes: for each position i,
// the window is every later access j up to the first one failing
// accs[j].T-accs[i].T <= w (NaN fails), with accs[i] as it stands after
// earlier swaps; the leftmost smallest offset in it is swapped into i if
// it is smaller than accs[i]'s. Scanning that window element by element
// costs a comparison per access in it, which on a mailbox read every
// ≈ 85 µs is a hundred per access at 10 ms.
//
// So the list is cut into blocks of sortBlock accesses, each summarized
// by its largest T, its leftmost smallest offset and whether all its T
// are finite. The scan steps element by element up to the next block
// boundary, then reads whole blocks through their summaries, and steps
// element by element again inside the block the window ends in. A block
// whose T are all finite lies wholly inside the window exactly when its
// largest T passes the stop test: subtracting accs[i].T is monotone over
// finite values, and maps all of them alike when accs[i].T is infinite
// or NaN. Taking its summary's minimum only where it is strictly smaller
// keeps the leftmost one, so the scan picks the same access and stops at
// the same place; a block holding an infinite or NaN T is always stepped
// through. A summary is built the first time its block is read whole —
// never, when the window ends at the block's first access — and a swap
// discards only the summary of the block it moved an access into: the
// block holding i is behind every later scan. The swaps, their order and
// the result are the linear scan's, which FuzzSortWindowEquivalence
// checks against a copy of it.
func SortWindow(accs []Access, w float64) int {
	n := len(accs)
	var blocks []blockSummary // built on first use, one block at a time
	swaps := 0
	for i := 0; i < n; i++ {
		t := accs[i].T
		best, bestOff := i, accs[i].Offset
		j, stop := i+1, min(n, (i/sortBlock+1)*sortBlock)
	scan:
		for {
			// Element by element up to the next block boundary...
			for ; j < stop; j++ {
				if !(accs[j].T-t <= w) {
					break scan
				}
				if accs[j].Offset < bestOff {
					best, bestOff = j, accs[j].Offset
				}
			}
			// ...whole blocks while they lie inside the window...
			for ; j < n; j += sortBlock {
				if !(accs[j].T-t <= w) {
					break scan
				}
				if blocks == nil {
					blocks = make([]blockSummary, (n+sortBlock-1)/sortBlock)
				}
				s := &blocks[j/sortBlock]
				if !s.valid {
					*s = summarize(accs, j)
				}
				if !s.finite || !(s.maxT-t <= w) {
					break
				}
				if s.minOff < bestOff {
					best, bestOff = s.minIdx, s.minOff
				}
			}
			if j >= n {
				break
			}
			// ...then through the block the window ends in.
			stop = min(n, j+sortBlock)
		}
		if best != i {
			accs[i], accs[best] = accs[best], accs[i]
			swaps++
			if blocks != nil {
				blocks[best/sortBlock].valid = false
			}
		}
	}
	return swaps
}

// sortBlock is the number of accesses a SortWindow block summarizes.
const sortBlock = 16

// blockSummary is what SortWindow reads of a block it takes whole.
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

// fan spreads n independent tasks across up to GOMAXPROCS goroutines,
// handing out the largest first so that one big file is not what the
// others wait for. The schedule is computed once and can run several
// passes over the same tasks.
type fan struct {
	n, width int
	order    []int // task indexes, largest first; nil when width is 1
}

func newFan(n int, size func(k int) int) fan {
	f := fan{n: n, width: min(runtime.GOMAXPROCS(0), n)}
	if f.width > 1 {
		f.order = make([]int, n)
		for k := range f.order {
			f.order[k] = k
		}
		slices.SortFunc(f.order, func(a, b int) int { return size(b) - size(a) })
	}
	return f
}

// run calls task k for every k. newWorker is called once per goroutine
// and returns that goroutine's task function, so a worker can keep
// scratch space across its tasks. Tasks must write only their own
// result slots.
func (f fan) run(newWorker func() func(k int)) {
	if f.width <= 1 {
		do := newWorker()
		for k := 0; k < f.n; k++ {
			do(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < f.width; g++ {
		wg.Add(1)
		do := newWorker()
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < f.n; k = int(next.Add(1)) - 1 {
				do(f.order[k])
			}
		}()
	}
	wg.Wait()
}

// ReorderSweepPoint is one point of Figure 1.
type ReorderSweepPoint struct {
	WindowMS float64
	// SwappedPct is the percentage of accesses that were swapped by
	// the sorting pass at this window size.
	SwappedPct float64
}

// sweep measures, for each window size, what percentage of the files'
// accesses the sorting pass moves. A file the cache holds a fresh entry
// for adds the swap counts it recorded; every other file × window sorts
// its own copy, fanned across cores. Swap counts are integers, so the
// sum does not depend on the order the tasks finish in.
func (l *accessLists) sweep(windowsMS []float64) []ReorderSweepPoint {
	type file struct {
		fh   core.FH
		accs []Access
	}
	nw := len(windowsMS)
	sums := make([]int, nw)
	var stale []file
	total := 0
	l.cache.lock()
	for fh, accs := range l.files {
		total += len(accs)
		if e, ok := l.cache.get(fh); ok && l.fresh(fh, accs, e) {
			for wi, n := range e.swaps {
				sums[wi] += n
			}
			continue
		}
		stale = append(stale, file{fh, accs})
	}
	l.cache.unlock()

	swaps := make([]int, len(stale)*nw)
	newFan(len(swaps), func(k int) int { return len(stale[k/nw].accs) }).run(func() func(int) {
		var cp []Access
		return func(k int) {
			cp = append(cp[:0], stale[k/nw].accs...)
			swaps[k] = SortWindow(cp, windowsMS[k%nw]/1000)
		}
	})
	l.cache.lock()
	for f, sf := range stale {
		counts := swaps[f*nw : (f+1)*nw]
		for wi, n := range counts {
			sums[wi] += n
		}
		if l.cache != nil && !l.fed[sf.fh] {
			l.cache.put(sf.fh, finishEntry{n: len(sf.accs), swaps: slices.Clone(counts)})
		}
	}
	l.cache.unlock()

	out := make([]ReorderSweepPoint, 0, nw)
	for wi, wms := range windowsMS {
		n := sums[wi]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		out = append(out, ReorderSweepPoint{WindowMS: wms, SwappedPct: pct})
	}
	return out
}

// ReorderSweeper is the Figure 1 reducer: per-file access lists under a
// fixed list of window sizes. Sorting windows apply per file, so the
// lists partition by handle.
type ReorderSweeper struct {
	windowsMS []float64
	accessLists
}

// NewReorderSweeper returns an empty sweep over the given window sizes
// (milliseconds).
func NewReorderSweeper(windowsMS []float64) *ReorderSweeper {
	return &ReorderSweeper{windowsMS: windowsMS, accessLists: accessLists{files: make(AccessMap)}}
}

// Add implements Reducer.
func (r *ReorderSweeper) Add(op *core.Op) { r.add(op) }

// Merge implements Reducer.
func (r *ReorderSweeper) Merge(src *ReorderSweeper, f Filter) { r.merge(&src.accessLists, f) }

// Points runs the sweep over everything added so far.
func (r *ReorderSweeper) Points() []ReorderSweepPoint { return r.sweep(r.windowsMS) }

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

// Run is one detected run on one file.
type Run struct {
	FH       core.FH
	Accesses []Access
	Kind     RunKind
	Pattern  RunPattern
	// Bytes is the total bytes accessed in the run.
	Bytes uint64
	// FileSize is the largest file size observed during the run.
	FileSize uint64
	// Metric is the sequentiality metric with the configured jump
	// tolerance; MetricK1 is the strict (k=1) variant.
	Metric   float64
	MetricK1 float64
}

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

// DetectRunsInFiles splits each file's accesses into runs and
// classifies them. Files are worked on in parallel and their runs laid
// out in sorted-handle order, so the run list is reproducible. The sort
// is by the rendered handle spelling, not the interned ID — ID numbering
// depends on decode interleaving, spellings don't.
//
// With a reorder window each file is sorted in a copy, and only a file
// the pass reorders keeps its copy; every other file's runs, and all of
// them without a window, are capped views of the file's own list. A
// run's Accesses share a backing array with its neighbours, capped at
// its length, so appending to one reallocates instead of writing into
// the next, and files is never written. A RunDetector forked from a
// live engine does the same through its FinishCache, re-sorting only
// the files whose lists grew since the entry was made.
func DetectRunsInFiles(files map[core.FH][]Access, cfg RunConfig) []Run {
	return (&accessLists{files: files}).runs(cfg)
}

func (l *accessLists) runs(cfg RunConfig) []Run {
	type file struct {
		fh    core.FH
		spell string
		accs  []Access // in reorder-window order once sorted
		stale bool     // accs still needs the reorder pass
		moved bool     // accs is a copy the pass reordered
		runs  []Run
	}
	order := make([]file, 0, len(l.files))
	l.cache.lock()
	for fh, accs := range l.files {
		f := file{fh: fh, accs: accs[:len(accs):len(accs)], stale: cfg.ReorderWindow > 0}
		e, ok := l.cache.get(fh)
		if !ok {
			e.spell = fh.String()
		} else if l.fresh(fh, accs, e) {
			f.stale = false
			if e.sorted != nil {
				f.accs, f.moved = e.sorted, true
			}
		}
		f.spell = e.spell
		order = append(order, f)
	}
	l.cache.unlock()
	sort.Slice(order, func(i, j int) bool { return order[i].spell < order[j].spell })
	perFile := newFan(len(order), func(k int) int { return len(order[k].accs) })

	// Sort and count each file's runs, so that one slice holds them all;
	// then classify each file's runs into its stretch of it.
	counts := make([]int, len(order))
	perFile.run(func() func(int) {
		var scratch []Access
		return func(k int) {
			f := &order[k]
			if f.stale {
				f.accs, f.moved, scratch = reorder(f.accs, cfg.ReorderWindow, scratch)
			}
			counts[k] = countRuns(f.accs, cfg)
		}
	})
	if l.cache != nil {
		l.cache.lock()
		for _, f := range order {
			if f.stale && !l.fed[f.fh] {
				e := finishEntry{n: len(f.accs), spell: f.spell}
				if f.moved {
					e.sorted = f.accs
				}
				l.cache.put(f.fh, e)
			}
		}
		l.cache.unlock()
	}
	nruns := 0
	for _, c := range counts {
		nruns += c
	}
	if nruns == 0 {
		return nil
	}
	runs := make([]Run, nruns)
	rest := runs
	for k := range order {
		order[k].runs, rest = rest[:0:counts[k]], rest[counts[k]:]
	}
	perFile.run(func() func(int) {
		return func(k int) {
			f := &order[k]
			splitRuns(f.runs, f.fh, f.accs, cfg)
		}
	})
	return runs
}

// reorder runs the reorder-window pass over a copy of accs made in
// scratch. It returns accs itself when the pass moved nothing, else the
// sorted copy (moved), together with the scratch buffer for the next
// call: the copy takes the buffer over unless an earlier, larger file
// left the buffer more than twice the copy's size.
func reorder(accs []Access, w float64, scratch []Access) (sorted []Access, moved bool, rest []Access) {
	buf := append(scratch[:0], accs...)
	if SortWindow(buf, w) == 0 {
		return accs, false, buf
	}
	n := len(buf)
	if cap(buf) > 2*n {
		return slices.Clip(slices.Clone(buf)), true, buf
	}
	return buf[:n:n], true, nil
}

// RunDetector is the Table 3 / Figure 2 / Figure 5 reducer: per-file
// access lists under one run-detection configuration. Runs never span
// files, so the lists partition by handle.
type RunDetector struct {
	cfg RunConfig
	accessLists
}

// NewRunDetector returns an empty detector.
func NewRunDetector(cfg RunConfig) *RunDetector {
	return &RunDetector{cfg: cfg, accessLists: accessLists{files: make(AccessMap)}}
}

// Add implements Reducer.
func (r *RunDetector) Add(op *core.Op) { r.add(op) }

// Merge implements Reducer.
func (r *RunDetector) Merge(src *RunDetector, f Filter) { r.merge(&src.accessLists, f) }

// Runs detects and classifies the runs in everything added so far.
func (r *RunDetector) Runs() []Run { return r.runs(r.cfg) }

// breaksRun applies the §4.2 run-break rules: a new run begins after an
// access that referenced end-of-file, or after an idle gap.
func breaksRun(prev, next *Access, cfg RunConfig) bool {
	return prev.EOF || (cfg.IdleGap > 0 && next.T-prev.T > cfg.IdleGap)
}

// countRuns reports how many runs splitRuns cuts accs into.
func countRuns(accs []Access, cfg RunConfig) int {
	if len(accs) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(accs); i++ {
		if breaksRun(&accs[i-1], &accs[i], cfg) {
			n++
		}
	}
	return n
}

// splitRuns appends the classified runs of accs to dst and returns it.
// Each run's Accesses is a capped sub-slice of accs.
func splitRuns(dst []Run, fh core.FH, accs []Access, cfg RunConfig) []Run {
	start := 0
	for i := 1; i <= len(accs); i++ {
		if i == len(accs) || breaksRun(&accs[i-1], &accs[i], cfg) {
			dst = append(dst, classifyRun(fh, accs[start:i:i], cfg))
			start = i
		}
	}
	return dst
}

func classifyRun(fh core.FH, accs []Access, cfg RunConfig) Run {
	r := Run{FH: fh, Accesses: accs}
	reads, writes := 0, 0
	var maxSize uint64
	for _, a := range accs {
		if a.Write {
			writes++
		} else {
			reads++
		}
		r.Bytes += uint64(a.Count)
		if a.Size > maxSize {
			maxSize = a.Size
		}
	}
	r.FileSize = maxSize
	switch {
	case writes == 0:
		r.Kind = RunRead
	case reads == 0:
		r.Kind = RunWrite
	default:
		r.Kind = RunReadWrite
	}

	k := cfg.JumpBlocks
	if k < 1 {
		k = 1
	}
	sequential := true
	var seqK, seqStrict, total int64
	for i := 1; i < len(accs); i++ {
		total++
		prevEnd := accs[i-1].Offset + uint64(accs[i-1].Count)
		// Sequentiality (§4.2): each request begins where the previous
		// one left off, by byte offset, with forward slack of up to k
		// 8 KB blocks (offsets and counts round to blocks, so exact
		// byte-appends within a block are sequential too).
		if accs[i].Offset < prevEnd ||
			accs[i].Offset-prevEnd >= uint64(k)*BlockSize {
			sequential = false
		}
		// The k-consecutive metric works on blocks, counting small
		// jumps in either direction (§6.4).
		gap := accs[i].startBlock() - accs[i-1].endBlock()
		if gap < 0 {
			gap = -gap
		}
		if gap < k {
			seqK++
		}
		if gap == 0 {
			seqStrict++
		}
	}
	if total > 0 {
		r.Metric = float64(seqK) / float64(total)
		r.MetricK1 = float64(seqStrict) / float64(total)
	} else {
		r.Metric, r.MetricK1 = 1, 1
	}

	// Entire: sequential from offset 0 through end-of-file.
	first := accs[0]
	last := accs[len(accs)-1]
	coversWhole := first.Offset == 0 &&
		(last.EOF || (maxSize > 0 && last.Offset+uint64(last.Count) >= maxSize))
	if len(accs) == 1 {
		// Singleton runs: entire if they access the whole file,
		// sequential otherwise (§5.1, Table 3 note).
		if coversWhole {
			r.Pattern = PatternEntire
		} else {
			r.Pattern = PatternSequential
		}
		return r
	}
	switch {
	case sequential && coversWhole:
		r.Pattern = PatternEntire
	case sequential:
		r.Pattern = PatternSequential
	default:
		r.Pattern = PatternRandom
	}
	return r
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

// Tabulate builds Table 3 from detected runs.
func Tabulate(runs []Run) RunTable {
	var t RunTable
	t.TotalRuns = len(runs)
	if len(runs) == 0 {
		return t
	}
	var kindCount [3]int
	var pat [3][3]int
	for _, r := range runs {
		kindCount[r.Kind]++
		pat[r.Kind][r.Pattern]++
	}
	pct := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	t.ReadPct = pct(kindCount[RunRead], len(runs))
	t.WritePct = pct(kindCount[RunWrite], len(runs))
	t.ReadWritePct = pct(kindCount[RunReadWrite], len(runs))
	for kind := 0; kind < 3; kind++ {
		for p := 0; p < 3; p++ {
			v := pct(pat[kind][p], kindCount[kind])
			switch RunKind(kind) {
			case RunRead:
				t.Read[p] = v
			case RunWrite:
				t.Write[p] = v
			case RunReadWrite:
				t.ReadWrite[p] = v
			}
		}
	}
	return t
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
func SizeProfile(runs []Run) []SizeProfilePoint {
	const minExp, maxExp = 10, 28 // 1 KB .. 256 MB
	var total float64
	var byPat [3][maxExp - minExp + 1]float64
	var all [maxExp - minExp + 1]float64
	for _, r := range runs {
		if r.Bytes == 0 {
			continue
		}
		e := minExp
		for (uint64(1)<<uint(e)) < r.FileSize && e < maxExp {
			e++
		}
		idx := e - minExp
		all[idx] += float64(r.Bytes)
		byPat[r.Pattern][idx] += float64(r.Bytes)
		total += float64(r.Bytes)
	}
	if total == 0 {
		return nil
	}
	var out []SizeProfilePoint
	var cumAll float64
	var cumPat [3]float64
	for i := 0; i <= maxExp-minExp; i++ {
		cumAll += all[i]
		for p := 0; p < 3; p++ {
			cumPat[p] += byPat[p][i]
		}
		out = append(out, SizeProfilePoint{
			SizeCeil:      1 << uint(i+minExp),
			TotalPct:      100 * cumAll / total,
			EntirePct:     100 * cumPat[PatternEntire] / total,
			SequentialPct: 100 * cumPat[PatternSequential] / total,
			RandomPct:     100 * cumPat[PatternRandom] / total,
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
// JumpBlocks=10 (Metric) — MetricK1 supplies the strict curves.
func SequentialityProfile(runs []Run) []SeqMetricPoint {
	const minExp, maxExp = 14, 26 // 16 KB .. 64 MB
	nb := maxExp - minExp + 1
	type acc struct {
		k10, k1 float64
		n       int
	}
	var readB, writeB [16]acc
	var runCount, readCount, writeCount [16]int
	var totalRuns, totalRead, totalWrite int
	for _, r := range runs {
		e := minExp
		for (uint64(1)<<uint(e)) < r.Bytes && e < maxExp {
			e++
		}
		i := e - minExp
		runCount[i]++
		totalRuns++
		switch r.Kind {
		case RunRead:
			readB[i].k10 += r.Metric
			readB[i].k1 += r.MetricK1
			readB[i].n++
			readCount[i]++
			totalRead++
		case RunWrite:
			writeB[i].k10 += r.Metric
			writeB[i].k1 += r.MetricK1
			writeB[i].n++
			writeCount[i]++
			totalWrite++
		}
	}
	var out []SeqMetricPoint
	var cum, cumR, cumW int
	for i := 0; i < nb; i++ {
		p := SeqMetricPoint{BytesCeil: 1 << uint(i+minExp),
			ReadK10: -1, ReadK1: -1, WriteK10: -1, WriteK1: -1}
		if readB[i].n > 0 {
			p.ReadK10 = readB[i].k10 / float64(readB[i].n)
			p.ReadK1 = readB[i].k1 / float64(readB[i].n)
		}
		if writeB[i].n > 0 {
			p.WriteK10 = writeB[i].k10 / float64(writeB[i].n)
			p.WriteK1 = writeB[i].k1 / float64(writeB[i].n)
		}
		cum += runCount[i]
		cumR += readCount[i]
		cumW += writeCount[i]
		if totalRuns > 0 {
			p.CumRunsPct = 100 * float64(cum) / float64(totalRuns)
		}
		if totalRead > 0 {
			p.CumReadRunsPct = 100 * float64(cumR) / float64(totalRead)
		}
		if totalWrite > 0 {
			p.CumWriteRunsPct = 100 * float64(cumW) / float64(totalWrite)
		}
		out = append(out, p)
	}
	return out
}
