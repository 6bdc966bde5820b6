package analysis

import (
	"fmt"

	"repro/internal/core"
)

// Summary is the Table 2 presentation: average daily activity.
type Summary struct {
	Days float64

	TotalOps     int64
	ReadOps      int64
	WriteOps     int64
	MetadataOps  int64
	BytesRead    uint64
	BytesWritten uint64

	// ProcCounts breaks the mix down by procedure, indexed by the
	// interned ProcID — a dense array, so the per-op update is one
	// array store instead of a string-map hash.
	ProcCounts ProcCountTable
}

// ProcCountTable is a dense per-procedure counter, indexed by
// core.ProcID.
type ProcCountTable [256]int64

// ByName renders the table as a name → count map for presentation.
func (t *ProcCountTable) ByName() map[string]int64 {
	out := make(map[string]int64)
	for id, n := range t {
		if n != 0 {
			out[core.ProcID(id).String()] = n
		}
	}
	return out
}

// NewSummary returns an empty accumulator for a window of the given
// number of days.
func NewSummary(days float64) *Summary {
	return &Summary{Days: days}
}

// Add folds one operation into the summary.
func (s *Summary) Add(op *core.Op) {
	s.TotalOps++
	s.ProcCounts[op.Proc]++
	switch {
	case op.IsRead():
		s.ReadOps++
		s.BytesRead += op.Bytes()
	case op.IsWrite():
		s.WriteOps++
		s.BytesWritten += op.Bytes()
	default:
		s.MetadataOps++
	}
}

// Merge folds other into s, as if other's operations had been added to
// s directly. Every field is an integer count, so the merged summary is
// identical whatever the partitioning; none is keyed by a file handle.
func (s *Summary) Merge(other *Summary, f Filter) {
	if !f.unkeyed() {
		return
	}
	s.TotalOps += other.TotalOps
	s.ReadOps += other.ReadOps
	s.WriteOps += other.WriteOps
	s.MetadataOps += other.MetadataOps
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	for id, n := range other.ProcCounts {
		s.ProcCounts[id] += n
	}
}

// Daily scales a count to a per-day average.
func (s *Summary) Daily(v float64) float64 {
	if s.Days <= 0 {
		return v
	}
	return v / s.Days
}

// ReadWriteByteRatio is bytes read / bytes written.
func (s *Summary) ReadWriteByteRatio() float64 {
	if s.BytesWritten == 0 {
		return 0
	}
	return float64(s.BytesRead) / float64(s.BytesWritten)
}

// ReadWriteOpRatio is read ops / write ops.
func (s *Summary) ReadWriteOpRatio() float64 {
	if s.WriteOps == 0 {
		return 0
	}
	return float64(s.ReadOps) / float64(s.WriteOps)
}

// MetadataFraction is the share of operations that move no data.
func (s *Summary) MetadataFraction() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.MetadataOps) / float64(s.TotalOps)
}

// String renders the Table 2 row for this trace.
func (s *Summary) String() string {
	return fmt.Sprintf(
		"days=%.1f total_ops/day=%.3fM read_GB/day=%.2f read_ops/day=%.3fM "+
			"written_GB/day=%.2f write_ops/day=%.3fM rw_bytes=%.2f rw_ops=%.2f meta=%.1f%%",
		s.Days,
		s.Daily(float64(s.TotalOps))/1e6,
		s.Daily(float64(s.BytesRead))/(1<<30),
		s.Daily(float64(s.ReadOps))/1e6,
		s.Daily(float64(s.BytesWritten))/(1<<30),
		s.Daily(float64(s.WriteOps))/1e6,
		s.ReadWriteByteRatio(),
		s.ReadWriteOpRatio(),
		100*s.MetadataFraction(),
	)
}
