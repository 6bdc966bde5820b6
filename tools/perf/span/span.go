// Package span is the benchmark's in-memory trace: one span per stage
// invocation, recorded from the benchmark's own files around the calls
// into each layer, written out when the traced run ends. It imports
// nothing from the repository, so the end-to-end runner can read span
// files without depending on any internal API.
package span

import (
	"sort"
	"time"
)

// Span is one stage invocation. Spans of one pass share Pass; Parent is
// the index (in the recorder's slice) of the span that caused this one,
// or -1 for a root. Units is the work the stage did — records, packets,
// messages or ops — so a per-unit cost is (End-Start)/Units.
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Units    int64  `json:"units"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.EndNS - s.StartNS }

// PerUnit is the span's cost per unit of work in nanoseconds, 0 when
// the stage did no work.
func (s Span) PerUnit() float64 {
	if s.Units <= 0 {
		return 0
	}
	return float64(s.Dur()) / float64(s.Units)
}

// Recorder collects spans in memory. It is used from one goroutine: the
// traced run drives one stage at a time.
type Recorder struct {
	Workload string
	Pass     int
	Spans    []Span
	epoch    time.Time
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder(workload string) *Recorder {
	return &Recorder{Workload: workload, epoch: time.Now()}
}

// Start opens a span under parent (-1 for a root) and returns its id.
func (r *Recorder) Start(name string, parent int) int {
	r.Spans = append(r.Spans, Span{
		Name: name, Workload: r.Workload, Pass: r.Pass, Parent: parent,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	return len(r.Spans) - 1
}

// End closes span id, recording the work it did.
func (r *Recorder) End(id int, units int64) {
	r.Spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
	r.Spans[id].Units = units
}

// Time runs fn as a span and returns the span's id.
func (r *Recorder) Time(name string, parent int, fn func() (units int64)) int {
	id := r.Start(name, parent)
	r.End(id, fn())
	return id
}

// SelfNS reports each span's self time: its duration minus the part of
// it its children account for. A child that ran inside the parent's
// interval covers the overlap (overlapping children are not counted
// twice); a child replayed outside the interval — the staged replay
// runs a parent's stages one after another on the same input — accounts
// for its whole duration. Self time never goes below zero.
func SelfNS(spans []Span) []int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		var covered int64
		var inside [][2]int64
		for _, c := range children[i] {
			lo, hi := max(c.StartNS, p.StartNS), min(c.EndNS, p.EndNS)
			if hi <= lo {
				covered += c.Dur()
				continue
			}
			inside = append(inside, [2]int64{lo, hi})
		}
		sort.Slice(inside, func(a, b int) bool { return inside[a][0] < inside[b][0] })
		end := int64(-1 << 62)
		for _, iv := range inside {
			if iv[1] <= end {
				continue
			}
			covered += iv[1] - max(iv[0], end)
			end = iv[1]
		}
		self[i] = max(p.Dur()-covered, 0)
	}
	return self
}

// StageShare is one row of the stage-share table: every span of one
// name, summed.
type StageShare struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	Units   int64   `json:"units"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	Share   float64 `json:"share"` // self time over the sum of all self time
}

// Shares folds the spans of one pass into one row per stage name,
// largest self time first.
func Shares(spans []Span, pass int) []StageShare {
	self := SelfNS(spans)
	byName := make(map[string]*StageShare)
	var total int64
	for i, s := range spans {
		if s.Pass != pass {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &StageShare{Name: s.Name}
			byName[s.Name] = row
		}
		row.Calls++
		row.Units += s.Units
		row.TotalNS += s.Dur()
		row.SelfNS += self[i]
		total += self[i]
	}
	rows := make([]StageShare, 0, len(byName))
	for _, row := range byName {
		if total > 0 {
			row.Share = float64(row.SelfNS) / float64(total)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfNS != rows[b].SelfNS {
			return rows[a].SelfNS > rows[b].SelfNS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}
