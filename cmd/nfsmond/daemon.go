package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/window"
)

// daemon owns the live engine and everything the endpoints read. The
// pipeline's Live is single-feeder by contract, so every touch of the
// joiner, engine, or ring happens under mu: the ingest loop holds it
// per record, a report handler holds it only long enough to Fork —
// ingest stalls for the copy, never for the rendering.
type daemon struct {
	mu   sync.Mutex
	j    *pipeline.Joiner
	lv   *pipeline.Live
	ring *window.Ring
	// sets are the served analyses, summary first; each one's analyzer
	// is registered in this order, so a snapshot's i'th analyzer is
	// sets[i]'s fork.
	sets []*jobspec.Set

	slide  int
	rebase bool
	base   float64
	seenT  bool

	records int64
	procs   [256]int64
	drained bool

	started    time.Time
	lastScrape time.Time
	lastOps    int64

	// Snapshot cost, outside mu: reports run on concurrent handlers.
	snapshots   atomic.Int64
	forkNanos   atomic.Int64 // ingest stall: Fork and the pending copy under mu
	finishNanos atomic.Int64 // pending feed and Finish on the copy

	opsBuf []*core.Op
}

func newDaemon(cfg pipeline.Config, width float64, keep, slide int, rebase bool, sets []*jobspec.Set) *daemon {
	var analyzers []pipeline.Analyzer
	for _, set := range sets {
		analyzers = append(analyzers, set.Analyzers...)
	}
	return &daemon{
		j:       pipeline.NewPushJoiner(),
		lv:      pipeline.NewLive(cfg, analyzers...),
		ring:    window.NewRing(width, keep),
		sets:    sets,
		slide:   slide,
		rebase:  rebase,
		started: time.Now(),
	}
}

// ingestLoop opens the source and pulls records until it ends (EOF
// on a static file or stdin, Stop on any source), then drains the
// joiner so the served state reflects every record read. The joiner
// hands the source's records back to it once it is done with them.
func (d *daemon) ingestLoop(open func() (core.RecordSource, error)) error {
	src, err := open()
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.j.Recycler, _ = src.(core.RecordRecycler)
	d.mu.Unlock()
	for {
		rec, err := src.Next()
		if err == io.EOF || err == core.ErrReaderStopped {
			d.mu.Lock()
			d.drain()
			d.mu.Unlock()
			return nil
		}
		if err != nil {
			return err
		}
		d.ingest(rec)
	}
}

func (d *daemon) ingest(rec *core.Record) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rebase {
		if !d.seenT {
			d.base = rec.Time
			d.seenT = true
		}
		rec.Time -= d.base
	}
	d.records++
	d.opsBuf = d.j.Push(rec, d.opsBuf[:0])
	for _, op := range d.opsBuf {
		d.feed(op)
		d.j.RecycleOp(op)
	}
}

func (d *daemon) feed(op *core.Op) {
	d.lv.Feed(op)
	d.ring.Add(op)
	d.procs[op.Proc]++
}

// drain flushes the joiner's held state into the engine; the caller
// holds mu.
func (d *daemon) drain() {
	if d.drained {
		return
	}
	for _, op := range d.j.Drain(nil) {
		d.feed(op)
	}
	d.drained = true
}

// report takes a barrier-consistent snapshot and finishes it as if the
// stream had ended at this instant: the fork is fed the joiner's
// pending operations (non-destructively), so its results match a batch
// run over every record ingested so far. Only the Fork and the pending
// copy happen under mu.
func (d *daemon) report() (*pipeline.Snapshot, core.JoinStats, pipeline.Stats, error) {
	d.mu.Lock()
	t0 := time.Now()
	snap, err := d.lv.Fork()
	if err != nil {
		d.mu.Unlock()
		return nil, core.JoinStats{}, pipeline.Stats{}, err
	}
	// The join statistics as if the stream ended now.
	pend, join := []*core.Op(nil), d.j.Stats()
	if !d.drained {
		pend, join = d.j.PendingOps(), d.j.StatsIfDrained()
	}
	t1 := time.Now()
	d.mu.Unlock()

	for _, op := range pend {
		snap.Feed(op)
	}
	stats := snap.Finish()
	d.forkNanos.Add(int64(t1.Sub(t0)))
	d.finishNanos.Add(int64(time.Since(t1)))
	d.snapshots.Add(1)
	return snap, join, stats, nil
}

// finalize drains any remaining joiner state and prints the closing
// summary through the summary kind's printer, as nfsanalyze does.
func (d *daemon) finalize(w io.Writer) {
	d.mu.Lock()
	d.drain()
	d.mu.Unlock()
	snap, join, stats, err := d.report()
	if err != nil {
		fmt.Fprintf(w, "nfsmond: final report: %v\n", err)
		return
	}
	d.sets[0].Print(w, snap.Analyzers[0], stats, join)
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/api/summary", d.serveSummary)
	mux.HandleFunc("/api/windows", d.serveWindows)
	mux.HandleFunc("/api/sliding", d.serveSliding)
	mux.HandleFunc("/api/analyses", d.serveAnalyses)
	return mux
}

// serveMetrics renders the Prometheus-style text exposition. All
// counters are monotonic over the daemon's life; the lag gauge is
// bounded by the window width as long as the ring rolls correctly.
func (d *daemon) serveMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	stats := d.lv.Stats()
	// Raw joiner stats, not the drained view: counters must stay
	// monotonic, and a pending call counted as unmatched would un-count
	// itself when its reply lands. Pending is its own gauge.
	join := d.j.Stats()
	pending, held := d.j.Pending(), d.j.Held()
	lag, late := d.ring.Lag(), d.ring.Late()
	curStart := d.ring.CurrentStart()
	records := d.records
	procs := d.procs
	now := time.Now()
	// Ingest rate over the scrape interval (whole uptime on the first
	// scrape) — a gauge alongside the raw counters.
	var rate float64
	since := d.started
	base := int64(0)
	if !d.lastScrape.IsZero() {
		since, base = d.lastScrape, d.lastOps
	}
	if dt := now.Sub(since).Seconds(); dt > 0 {
		rate = float64(stats.Ops-base) / dt
	}
	d.lastScrape, d.lastOps = now, stats.Ops
	uptime := now.Sub(d.started).Seconds()
	d.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintln(w, "# HELP nfsmond_records_total Trace records ingested.")
	fmt.Fprintln(w, "# TYPE nfsmond_records_total counter")
	fmt.Fprintf(w, "nfsmond_records_total %d\n", records)
	fmt.Fprintln(w, "# HELP nfsmond_ops_total Joined operations fed to the analyzers, by procedure.")
	fmt.Fprintln(w, "# TYPE nfsmond_ops_total counter")
	fmt.Fprintf(w, "nfsmond_ops_total %d\n", stats.Ops)
	var ids []int
	for id, n := range procs {
		if n != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		return core.ProcID(ids[a]).String() < core.ProcID(ids[b]).String()
	})
	fmt.Fprintln(w, "# HELP nfsmond_proc_ops_total Joined operations by procedure.")
	fmt.Fprintln(w, "# TYPE nfsmond_proc_ops_total counter")
	for _, id := range ids {
		fmt.Fprintf(w, "nfsmond_proc_ops_total{proc=%q} %d\n", core.ProcID(id).String(), procs[id])
	}
	fmt.Fprintln(w, "# HELP nfsmond_join_calls_total RPC calls seen by the joiner.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_calls_total counter")
	fmt.Fprintf(w, "nfsmond_join_calls_total %d\n", join.Calls)
	fmt.Fprintln(w, "# HELP nfsmond_join_replies_total RPC replies seen by the joiner.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_replies_total counter")
	fmt.Fprintf(w, "nfsmond_join_replies_total %d\n", join.Replies)
	fmt.Fprintln(w, "# HELP nfsmond_join_matched_total Call/reply pairs matched.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_matched_total counter")
	fmt.Fprintf(w, "nfsmond_join_matched_total %d\n", join.Matched)
	fmt.Fprintln(w, "# HELP nfsmond_join_unmatched_calls_total Calls expired or drained without replies.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_unmatched_calls_total counter")
	fmt.Fprintf(w, "nfsmond_join_unmatched_calls_total %d\n", join.UnmatchedCalls)
	fmt.Fprintln(w, "# HELP nfsmond_join_orphan_replies_total Replies without calls.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_orphan_replies_total counter")
	fmt.Fprintf(w, "nfsmond_join_orphan_replies_total %d\n", join.OrphanReplies)
	fmt.Fprintln(w, "# HELP nfsmond_join_pending Calls currently awaiting replies.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_pending gauge")
	fmt.Fprintf(w, "nfsmond_join_pending %d\n", pending)
	fmt.Fprintln(w, "# HELP nfsmond_join_held Completed operations held for reordering.")
	fmt.Fprintln(w, "# TYPE nfsmond_join_held gauge")
	fmt.Fprintf(w, "nfsmond_join_held %d\n", held)
	fmt.Fprintln(w, "# HELP nfsmond_window_lag_seconds Stream progress into the current window; bounded by the width.")
	fmt.Fprintln(w, "# TYPE nfsmond_window_lag_seconds gauge")
	fmt.Fprintf(w, "nfsmond_window_lag_seconds %g\n", lag)
	fmt.Fprintln(w, "# HELP nfsmond_window_current_start_seconds Start time of the newest window, in trace seconds.")
	fmt.Fprintln(w, "# TYPE nfsmond_window_current_start_seconds gauge")
	fmt.Fprintf(w, "nfsmond_window_current_start_seconds %g\n", curStart)
	fmt.Fprintln(w, "# HELP nfsmond_window_late_total Operations dropped for arriving past the retained horizon.")
	fmt.Fprintln(w, "# TYPE nfsmond_window_late_total counter")
	fmt.Fprintf(w, "nfsmond_window_late_total %d\n", late)
	fmt.Fprintln(w, "# HELP nfsmond_ingest_ops_per_second Joined-op throughput over the last scrape interval.")
	fmt.Fprintln(w, "# TYPE nfsmond_ingest_ops_per_second gauge")
	fmt.Fprintf(w, "nfsmond_ingest_ops_per_second %g\n", rate)
	fmt.Fprintln(w, "# HELP nfsmond_snapshots_total Snapshots taken and finished for the report endpoints.")
	fmt.Fprintln(w, "# TYPE nfsmond_snapshots_total counter")
	fmt.Fprintf(w, "nfsmond_snapshots_total %d\n", d.snapshots.Load())
	fmt.Fprintln(w, "# HELP nfsmond_snapshot_fork_seconds_total Ingest stalled for snapshots: Fork and the pending-op copy.")
	fmt.Fprintln(w, "# TYPE nfsmond_snapshot_fork_seconds_total counter")
	fmt.Fprintf(w, "nfsmond_snapshot_fork_seconds_total %g\n", float64(d.forkNanos.Load())/1e9)
	fmt.Fprintln(w, "# HELP nfsmond_snapshot_finish_seconds_total Time finishing snapshots off the ingest path.")
	fmt.Fprintln(w, "# TYPE nfsmond_snapshot_finish_seconds_total counter")
	fmt.Fprintf(w, "nfsmond_snapshot_finish_seconds_total %g\n", float64(d.finishNanos.Load())/1e9)
	fmt.Fprintln(w, "# HELP nfsmond_uptime_seconds Daemon uptime.")
	fmt.Fprintln(w, "# TYPE nfsmond_uptime_seconds gauge")
	fmt.Fprintf(w, "nfsmond_uptime_seconds %g\n", uptime)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (d *daemon) serveSummary(w http.ResponseWriter, r *http.Request) {
	snap, join, stats, err := d.report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"ops":          stats.Ops,
		"span_seconds": stats.Span(),
		"days":         jobspec.Days(stats),
		"summary":      d.sets[0].JSON(snap.Analyzers[0]),
		"join": map[string]any{
			"calls":           join.Calls,
			"replies":         join.Replies,
			"matched":         join.Matched,
			"unmatched_calls": join.UnmatchedCalls,
			"orphan_replies":  join.OrphanReplies,
			"loss_estimate":   join.LossEstimate(),
		},
	})
}

func (d *daemon) serveWindows(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	cells := d.ring.Cells()
	width := d.ring.Width()
	lag := d.ring.Lag()
	late := d.ring.Late()
	d.mu.Unlock()

	rows := make([]map[string]any, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, map[string]any{
			"start":         c.Start,
			"ops":           c.Ops,
			"read_ops":      c.Sum.ReadOps,
			"write_ops":     c.Sum.WriteOps,
			"bytes_read":    c.Sum.BytesRead,
			"bytes_written": c.Sum.BytesWritten,
			"metadata_frac": c.Sum.MetadataFraction(),
		})
	}
	writeJSON(w, map[string]any{
		"width_seconds": width,
		"lag_seconds":   lag,
		"late_dropped":  late,
		"windows":       rows,
	})
}

func (d *daemon) serveSliding(w http.ResponseWriter, r *http.Request) {
	k := d.slide
	if s := r.URL.Query().Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
		k = n
	}
	d.mu.Lock()
	sum := d.ring.Sliding(k)
	width := d.ring.Width()
	d.mu.Unlock()
	writeJSON(w, map[string]any{
		"windows":       k,
		"width_seconds": width,
		"summary":       jobspec.SummaryJSON(sum),
	})
}

// serveAnalyses renders every registered analyzer's table from one
// consistent snapshot — the paper's tables as JSON, mid-stream.
func (d *daemon) serveAnalyses(w http.ResponseWriter, r *http.Request) {
	snap, join, stats, err := d.report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := map[string]any{
		"ops":          stats.Ops,
		"span_seconds": stats.Span(),
		"join_loss":    join.LossEstimate(),
	}
	for i, set := range d.sets {
		out[set.Spec.Kind] = set.JSON(snap.Analyzers[i])
	}
	writeJSON(w, out)
}
