package analysis

import (
	"slices"

	"repro/internal/core"
)

// This file keeps the whole-list path the streaming reducers replaced,
// as their oracle: every data access of every file kept in an
// AccessMap, each file sorted in a copy by the blocked SortWindow, split
// into runs and classified at the finish. FuzzRunsStreamOracle and the
// trace tests require the streaming RunDetector and ReorderSweeper to
// produce what it produces, folding its runs into RunTables through the
// detector's own fold. The functions are the ones the reducers used,
// minus the finish cache and the fan-out across cores that only made
// re-finishing whole lists affordable; an OracleRun keeps the accesses
// it covers. SortWindow reads the block summaries the pending window
// keeps, of sortBlock accesses each.

// AccessMap groups data accesses by file handle, in trace order.
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

// OracleRun is a run as the whole-list path detects it: its
// classification and the accesses it covers, a capped view of the
// file's sorted list.
type OracleRun struct {
	run
	Accesses []Access
}

// OracleTables folds runs into run tables.
func OracleTables(runs []OracleRun) RunTables {
	var t RunTables
	for _, r := range runs {
		t.add(r.run)
	}
	return t
}

// endBlock returns the block just past the access, with counts rounded
// up to whole blocks as §4.2 prescribes.
func (a Access) endBlock() int64 {
	return int64((a.Offset + uint64(a.Count) + BlockSize - 1) / BlockSize)
}

func (a Access) startBlock() int64 { return int64(a.Offset / BlockSize) }

// breaks applies breaksRun to two accesses.
func breaks(prev, next *Access, cfg RunConfig) bool {
	return breaksRun(&runEnd{prev.T, prev.Offset, prev.Count, prev.EOF}, next.T, cfg)
}

// DetectRunsInFiles splits each file's accesses into runs and
// classifies them. With a reorder window each file is sorted in a copy,
// and only a file the pass reorders keeps its copy; every other file's
// runs, and all of them without a window, are capped views of the
// file's own list.
func DetectRunsInFiles(files map[core.FH][]Access, cfg RunConfig) []OracleRun {
	var runs []OracleRun
	var scratch []Access
	for _, accs := range files {
		accs = accs[:len(accs):len(accs)]
		if cfg.ReorderWindow > 0 {
			accs, _, scratch = reorder(accs, cfg.ReorderWindow, scratch)
		}
		runs = splitRuns(runs, accs, cfg)
	}
	return runs
}

// OracleSweep measures, for each window size, what percentage of the
// files' accesses the sorting pass moves, sorting a copy of every file
// at every window.
func OracleSweep(files map[core.FH][]Access, windowsMS []float64) []ReorderSweepPoint {
	sums := make([]int, len(windowsMS))
	total := 0
	for _, accs := range files {
		total += len(accs)
		for wi, wms := range windowsMS {
			sums[wi] += SortWindow(slices.Clone(accs), wms/1000)
		}
	}
	out := make([]ReorderSweepPoint, 0, len(windowsMS))
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

// countRuns reports how many runs splitRuns cuts accs into.
func countRuns(accs []Access, cfg RunConfig) int {
	if len(accs) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(accs); i++ {
		if breaks(&accs[i-1], &accs[i], cfg) {
			n++
		}
	}
	return n
}

// splitRuns appends the classified runs of accs to dst and returns it.
// Each run's Accesses is a capped sub-slice of accs.
func splitRuns(dst []OracleRun, accs []Access, cfg RunConfig) []OracleRun {
	start := 0
	for i := 1; i <= len(accs); i++ {
		if i == len(accs) || breaks(&accs[i-1], &accs[i], cfg) {
			dst = append(dst, classifyRun(accs[start:i:i], cfg))
			start = i
		}
	}
	return dst
}

func classifyRun(accs []Access, cfg RunConfig) OracleRun {
	r := OracleRun{Accesses: accs}
	reads, writes := 0, 0
	var maxSize uint64
	for _, a := range accs {
		if a.Write {
			writes++
		} else {
			reads++
		}
		r.bytes += uint64(a.Count)
		if a.Size > maxSize {
			maxSize = a.Size
		}
	}
	r.fileSize = maxSize
	switch {
	case writes == 0:
		r.kind = RunRead
	case reads == 0:
		r.kind = RunWrite
	default:
		r.kind = RunReadWrite
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
		r.metric = float64(seqK) / float64(total)
		r.metricK1 = float64(seqStrict) / float64(total)
	} else {
		r.metric, r.metricK1 = 1, 1
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
			r.pattern = PatternEntire
		} else {
			r.pattern = PatternSequential
		}
		return r
	}
	switch {
	case sequential && coversWhole:
		r.pattern = PatternEntire
	case sequential:
		r.pattern = PatternSequential
	default:
		r.pattern = PatternRandom
	}
	return r
}
