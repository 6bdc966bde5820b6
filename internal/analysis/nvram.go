package analysis

// The paper's conclusions (§7) propose two server-side optimizations
// that follow directly from the measurements. This file implements the
// analyses that quantify them.
//
//   - "Mechanisms for delaying writes, such as NVRAM, would improve
//     performance for both the CAMPUS and EECS workloads, because many
//     blocks do not live long enough to be written."
//   - "Servers could schedule periods of reorganization since the daily
//     and weekly pattern of the workload is predictable."

// AbsorptionPoint reports, for one delay budget, the fraction of block
// writes the server never needs to issue to disk because the block dies
// (is overwritten, truncated, or deleted) within the delay.
type AbsorptionPoint struct {
	// DelaySec is the write-behind window (how long a dirty block may
	// sit in NVRAM before it must reach disk).
	DelaySec float64
	// AbsorbedPct is the percentage of block writes avoided.
	AbsorbedPct float64
}

// WriteAbsorption replays the trace against an idealized NVRAM
// write-behind buffer of unbounded size: every block write is buffered,
// and a disk write is saved whenever the block dies again within the
// delay. It reads the block-lifetime result: a block write is absorbed
// iff the block's lifetime is shorter than the delay, so res must come
// from a pass whose end margin covers the largest delay.
func WriteAbsorption(res *BlockLifeResult, delays []float64) []AbsorptionPoint {
	out := make([]AbsorptionPoint, 0, len(delays))
	for _, d := range delays {
		if res.Births == 0 {
			out = append(out, AbsorptionPoint{DelaySec: d})
			continue
		}
		// Fraction of born blocks whose observed lifetime < d.
		frac := res.Lifetimes.At(d) * float64(res.Lifetimes.N()) / float64(res.Births)
		out = append(out, AbsorptionPoint{DelaySec: d, AbsorbedPct: 100 * frac})
	}
	return out
}

// QuietPeriod is a contiguous stretch of hours whose load stays under a
// threshold — a candidate window for the reorganization the paper
// suggests.
type QuietPeriod struct {
	// StartHour and EndHour index hours from the trace epoch
	// (end exclusive).
	StartHour, EndHour int
	// MeanOps is the average hourly operation count inside the period.
	MeanOps float64
}

// Hours reports the period length.
func (q QuietPeriod) Hours() int { return q.EndHour - q.StartHour }

// QuietPeriods finds all stretches of at least minHours consecutive
// hours whose op count stays below frac × the peak-hour mean. The
// CAMPUS rhythm makes these long and nightly; an unpredictable workload
// yields few or none.
func QuietPeriods(h *HourlySeries, frac float64, minHours int) []QuietPeriod {
	// Peak mean as the reference level.
	var peak VarianceRow
	for _, row := range h.VarianceTable(true) {
		if row.Name == "total_ops" {
			peak = row
		}
	}
	threshold := peak.Mean * frac
	var out []QuietPeriod
	n := h.Ops.NumBuckets()
	i := 0
	for i < n {
		if h.Ops.Bucket(i) >= threshold {
			i++
			continue
		}
		j := i
		var sum float64
		for j < n && h.Ops.Bucket(j) < threshold {
			sum += h.Ops.Bucket(j)
			j++
		}
		if j-i >= minHours {
			out = append(out, QuietPeriod{StartHour: i, EndHour: j, MeanOps: sum / float64(j-i)})
		}
		i = j
	}
	return out
}

// QuietHoursTotal sums the hours across periods.
func QuietHoursTotal(ps []QuietPeriod) int {
	total := 0
	for _, p := range ps {
		total += p.Hours()
	}
	return total
}
