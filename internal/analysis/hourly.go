package analysis

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Hourly load analysis (§6.2): per-hour operation counts and byte
// volumes over the trace window, the Figure 4 series, and the Table 5
// all-hours vs peak-hours variance comparison.

// HourlySeries holds per-hour accumulations over the window.
type HourlySeries struct {
	Ops        *stats.TimeBuckets
	ReadOps    *stats.TimeBuckets
	WriteOps   *stats.TimeBuckets
	BytesRead  *stats.TimeBuckets
	BytesWrite *stats.TimeBuckets
}

// NewHourlyOpen returns a per-hour accumulator whose buckets grow on
// demand, since the window span is only known once the stream ends.
// Convert with FixedTo then.
func NewHourlyOpen() *HourlySeries {
	return &HourlySeries{
		Ops:        stats.NewOpenTimeBuckets(3600),
		ReadOps:    stats.NewOpenTimeBuckets(3600),
		WriteOps:   stats.NewOpenTimeBuckets(3600),
		BytesRead:  stats.NewOpenTimeBuckets(3600),
		BytesWrite: stats.NewOpenTimeBuckets(3600),
	}
}

// FixedTo folds an open series into the fixed form over [0, span):
// buckets are anchored at t=0, and hours past the span are clamped into
// the last bucket.
func (h *HourlySeries) FixedTo(span float64) *HourlySeries {
	return &HourlySeries{
		Ops:        h.Ops.Fixed(span),
		ReadOps:    h.ReadOps.Fixed(span),
		WriteOps:   h.WriteOps.Fixed(span),
		BytesRead:  h.BytesRead.Fixed(span),
		BytesWrite: h.BytesWrite.Fixed(span),
	}
}

// Add folds one operation into its hour bucket.
func (h *HourlySeries) Add(op *core.Op) {
	h.Ops.Add(op.T, 1)
	if op.IsRead() {
		h.ReadOps.Add(op.T, 1)
		h.BytesRead.Add(op.T, float64(op.Bytes()))
	} else if op.IsWrite() {
		h.WriteOps.Add(op.T, 1)
		h.BytesWrite.Add(op.T, float64(op.Bytes()))
	}
}

// Merge folds other's buckets into h. Both series must cover the same
// span (or h be open); bucket contents are whole counts, so merging is
// exact. No bucket is keyed by a file handle.
func (h *HourlySeries) Merge(other *HourlySeries, f Filter) {
	if !f.unkeyed() {
		return
	}
	h.Ops.Merge(other.Ops)
	h.ReadOps.Merge(other.ReadOps)
	h.WriteOps.Merge(other.WriteOps)
	h.BytesRead.Merge(other.BytesRead)
	h.BytesWrite.Merge(other.BytesWrite)
}

// RWRatios returns the per-hour read/write op ratio series (Figure 4,
// lower panel). Hours with no writes report 0.
func (h *HourlySeries) RWRatios() []float64 {
	return stats.Ratio(h.ReadOps, h.WriteOps)
}

// VarianceRow is one Table 5 line: the hourly mean and its relative
// standard deviation.
type VarianceRow struct {
	Name      string
	Mean      float64
	RelStddev float64 // stddev as a fraction of the mean
}

// isPeakHour reports whether hour index i (from the Sunday-00:00
// epoch) is 9am–6pm Monday–Friday.
func isPeakHour(i int) bool {
	day := (i / 24) % 7
	hod := i % 24
	return day >= 1 && day <= 5 && hod >= 9 && hod < 18
}

// VarianceTable computes Table 5: for each statistic, the hourly mean
// and relative stddev over either all hours or peak hours only.
func (h *HourlySeries) VarianceTable(peakOnly bool) []VarianceRow {
	series := []struct {
		name string
		tb   *stats.TimeBuckets
	}{
		{"total_ops", h.Ops},
		{"data_read_bytes", h.BytesRead},
		{"read_ops", h.ReadOps},
		{"data_written_bytes", h.BytesWrite},
		{"write_ops", h.WriteOps},
	}
	var rows []VarianceRow
	for _, s := range series {
		var r stats.Running
		for i := 0; i < s.tb.NumBuckets(); i++ {
			if peakOnly && !isPeakHour(i) {
				continue
			}
			r.Add(s.tb.Bucket(i))
		}
		rows = append(rows, VarianceRow{Name: s.name, Mean: r.Mean(), RelStddev: r.RelStddev()})
	}
	// Read/write op ratio per hour.
	var r stats.Running
	ratios := h.RWRatios()
	for i, v := range ratios {
		if peakOnly && !isPeakHour(i) {
			continue
		}
		if v > 0 {
			r.Add(v)
		}
	}
	rows = append(rows, VarianceRow{Name: "rw_op_ratio", Mean: r.Mean(), RelStddev: r.RelStddev()})
	return rows
}

// VarianceReduction reports, per statistic, the all-hours relative
// stddev divided by the peak-hours one — the paper reports ≥4× for
// every CAMPUS statistic.
func (h *HourlySeries) VarianceReduction() map[string]float64 {
	all := h.VarianceTable(false)
	peak := h.VarianceTable(true)
	out := make(map[string]float64, len(all))
	for i := range all {
		if peak[i].RelStddev > 0 {
			out[all[i].Name] = all[i].RelStddev / peak[i].RelStddev
		}
	}
	return out
}
