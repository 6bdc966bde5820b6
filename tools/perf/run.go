package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// A run sets a workload up at least minSetUps times and reports the
// median as setup_s, so one slow file-system moment does not read as a
// regression. A set-up of milliseconds (serve_*) is mostly process
// start-up jitter: those repeat until setUpBudget is spent.
const (
	minSetUps   = 3
	maxSetUps   = 15
	setUpBudget = time.Second
)

// options are the knobs of one benchmark run.
type options struct {
	scaleName string
	seed      int64
	seconds   float64 // time budget of the timed passes
	passes    int     // >0: exactly this many timed passes instead
	trace     bool
}

// sample is one metric's per-pass values and their summary.
type sample struct {
	Value   float64   `json:"value"` // median of Samples (peak_rss_mb: the smallest)
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) sample {
	q1, q3 := quartiles(xs)
	return sample{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, Samples: xs}
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name         string             `json:"name"`
	Unit         string             `json:"unit"`
	UnitsPerPass int64              `json:"units_per_pass"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FailShare    float64            `json:"fail_share"`
	Passes       []pass             `json:"passes"`
	Metrics      map[string]sample  `json:"metrics,omitempty"`   // end to end, tracing off
	PerLayer     map[string]float64 `json:"per_layer,omitempty"` // traced run
	Notes        []string           `json:"notes,omitempty"`
}

// runWorkload measures one workload: set it up (several times, timed),
// compute its reference output, run one discarded warm-up pass, then
// timed passes of the same fixed work until the time budget is spent.
func runWorkload(e *env, w workload, opt options) (*workloadResult, error) {
	sc := scales[opt.scaleName] // main checked the name
	res := &workloadResult{Name: w.Name, Unit: w.Unit}
	var inst *instance
	var setupS []float64
	began := time.Now()
	for i := 0; inst == nil; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", w.Name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		in, err := w.setup(e, sc, opt.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// The traced run reports no setup_s: once is enough.
		last := opt.trace || i+1 >= maxSetUps || (i+1 >= minSetUps && time.Since(began) >= setUpBudget)
		if last {
			inst = in
			break
		}
		in.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.Name, err)
	}
	res.UnitsPerPass = inst.units

	// The warm-up pass fills the page cache and sets the deadline of the
	// timed ones: a pass that takes ten times as long is hung.
	warm := inst.pass(setupDeadline)
	if warm.Note != "" {
		return nil, fmt.Errorf("%s: warm-up pass: %s", w.Name, warm.Note)
	}
	deadline := max(30*time.Second, time.Duration(10*warm.WallS*float64(time.Second)))

	minPasses := w.MinPasses
	if opt.passes > 0 {
		minPasses = opt.passes
	}
	start := time.Now()
	failedInARow := 0
	for i := 0; ; i++ {
		if i >= minPasses && (opt.passes > 0 || time.Since(start).Seconds() >= opt.seconds) {
			break
		}
		if failedInARow == 2 {
			break // broken, not unlucky: more passes (each up to a deadline long) tell nothing new
		}
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
		p := inst.pass(deadline)
		if p.Note != "" {
			if p.Failed == 0 {
				p.Failed = inst.units
			}
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d: %s", i, p.Note))
			fmt.Fprintf(e.log, "perf: %s: pass %d FAILED: %s\n", w.Name, i, p.Note)
			failedInARow++
		} else {
			failedInARow = 0
		}
		res.Passes = append(res.Passes, p)
		res.Attempted += inst.units
		res.Failed += p.Failed
	}
	res.FailShare = float64(res.Failed) / float64(res.Attempted)

	if opt.trace {
		layers, err := traceWorkload(e, w, inst, res.Passes, opt.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
		}
		res.PerLayer = layers
		return res, nil
	}
	res.Metrics = endToEndMetrics(res.Passes, inst.units, setupS)
	return res, nil
}

// endToEndMetrics folds the good passes into the end-to-end metrics;
// each is the median over passes.
func endToEndMetrics(passes []pass, units int64, setupS []float64) map[string]sample {
	var perS, cpu, rss, p50, tail, walls []float64
	for _, p := range passes {
		if p.Note != "" || p.WallS <= 0 {
			continue
		}
		// Seeds differ in how much trace they generate; per 100 000
		// units a run time compares across them.
		walls = append(walls, p.WallS*1000*1e5/float64(units))
		perS = append(perS, float64(units)/p.WallS)
		cpu = append(cpu, p.CPUS*1e6/float64(units))
		rss = append(rss, p.RSSMB)
		p50 = append(p50, p.LatP50)
		tail = append(tail, p.LatTail)
	}
	batch := len(p50) > 0 && p50[0] == 0
	if batch {
		// One run of the tool is the request: its latencies are the pass
		// walls (per 100 000 units), too few for a percentile above the
		// third quartile.
		_, q3 := quartiles(walls)
		p50, tail = walls, []float64{q3}
	}
	peak := summarize("MB", rss)
	if len(rss) > 0 {
		// What the run needs is the smallest peak; how far a pass goes
		// above it is GC timing.
		peak.Value = slices.Min(rss)
	}
	return map[string]sample{
		"work_per_s":      summarize("1/s", perS),
		"lat_p50_ms":      summarize("ms", p50),
		"lat_tail_ms":     summarize("ms", tail),
		"cpu_us_per_unit": summarize("us", cpu),
		"peak_rss_mb":     peak,
		"setup_s":         summarize("s", setupS),
	}
}
