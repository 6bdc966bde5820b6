// nfsbench is a closed/open-loop NFS load harness: T concurrent
// simulated clients drive the in-process NFS server (or any server
// speaking ONC RPC over record-marked TCP) across real loopback
// sockets, with a Zipfian file/offset popularity distribution and a
// configurable read/write/metadata mix. A sharded latency collector
// reports throughput, p50/p90/p99/p999, and full latency CDFs per
// operation class, as a live interval printer plus a final
// machine-readable JSON report.
//
// Closed loop (default): each of the -T clients keeps exactly -c
// operations outstanding; the offered load adapts to the server.
// Open loop (-rate): operations arrive on a Poisson schedule at the
// target aggregate rate regardless of completions, and latency is
// measured from the *intended* arrival time, so queueing delay is
// charged to the server (no coordinated omission).
//
// With a fixed -seed the operation streams are fully deterministic:
// two runs issue byte-identical call sequences, so op counts in the
// JSON report are bit-reproducible (latencies, of course, are not).
//
// Every reply is checked, not only counted: READ counts and payloads,
// WRITE counts and LOOKUP handles (see runner.execute), and every reply
// must match an outstanding call exactly once. A failed check is an
// error in the report.
//
// Usage:
//
//	nfsbench -T 8 -c 4 -n 100000 -files 256 -s 1.2 -seed 1
//	nfsbench -rate 5000 -n 50000 -read 70 -write 20 -json out.json
//	nfsbench -addr 127.0.0.1:2049 -version 2 -n 10000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nfsbench:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	addr        string
	T           int
	outstanding int
	rate        float64
	n           int
	files       int
	filesize    uint64
	xfer        uint64
	readPct     int
	writePct    int
	zipfS       float64
	zipfV       float64
	version     int
	seed        int64
	interval    time.Duration
	jsonPath    string
	maxInflight int
	rootIno     uint64
	tracePath   string

	// checkData compares READ payloads with server.Filler, the content
	// the in-process server serves; an external server's data is its
	// own. Not a flag: run sets it when -addr is empty.
	checkData bool
}

// Operation kinds drawn by the workload mix. The metadata class cycles
// through GETATTR, LOOKUP, and ACCESS.
const (
	kindRead = iota
	kindWrite
	kindGetattr
	kindLookup
	kindAccess
	numKinds
)

var kindName = [numKinds]string{"READ", "WRITE", "GETATTR", "LOOKUP", "ACCESS"}

var kindClass = [numKinds]stats.OpClass{
	stats.OpRead, stats.OpWrite, stats.OpMeta, stats.OpMeta, stats.OpMeta,
}

// op is one drawn operation: everything about it is decided by the
// deterministic generator before it touches the wire.
type op struct {
	kind int
	file int
	off  uint64
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil || cfg == nil {
		return err
	}
	cfg.checkData = cfg.addr == ""
	return bench(cfg, stdout, stderr)
}

// parseFlags parses and validates the command line; a nil config with
// a nil error means -help was asked for.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	var cfg config
	fs := flag.NewFlagSet("nfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", "", "server address; empty starts an in-process server on loopback")
	fs.IntVar(&cfg.T, "T", 4, "number of concurrent simulated clients (connections)")
	fs.IntVar(&cfg.outstanding, "c", 1, "closed loop: operations kept outstanding per client")
	fs.Float64Var(&cfg.rate, "rate", 0, "open loop: target aggregate arrival rate in ops/sec (0 = closed loop)")
	fs.IntVar(&cfg.n, "n", 10000, "total operations across all clients")
	fs.IntVar(&cfg.files, "files", 64, "benchmark file population")
	fs.Uint64Var(&cfg.filesize, "filesize", 1<<20, "size of each benchmark file in bytes")
	fs.Uint64Var(&cfg.xfer, "xfer", 8192, "read/write transfer size in bytes")
	fs.IntVar(&cfg.readPct, "read", 60, "percentage of READ operations")
	fs.IntVar(&cfg.writePct, "write", 20, "percentage of WRITE operations (the rest is metadata)")
	fs.Float64Var(&cfg.zipfS, "s", 1.2, "Zipfian skew exponent for file and offset popularity (0 = uniform)")
	fs.Float64Var(&cfg.zipfV, "v", 1, "Zipfian v parameter (head flattening, ≥ 1)")
	fs.IntVar(&cfg.version, "version", 3, "NFS protocol version: 2 or 3")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed; fixes the operation streams exactly")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "live stats print interval (0 disables)")
	fs.StringVar(&cfg.jsonPath, "json", "", "write the JSON report here instead of stdout")
	fs.IntVar(&cfg.maxInflight, "maxinflight", 256, "open loop: cap on in-flight operations per client")
	fs.Uint64Var(&cfg.rootIno, "root", 2, "root directory inode number for the exported filesystem")
	fs.StringVar(&cfg.tracePath, "trace", "", "append a passive text trace of the in-process server's traffic to this file (for nfsmond/nfsanalyze; requires empty -addr)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, nil
		}
		return nil, err
	}
	if cfg.T < 1 || cfg.outstanding < 1 || cfg.n < 1 || cfg.files < 1 {
		return nil, fmt.Errorf("need -T, -c, -n, -files ≥ 1")
	}
	if cfg.readPct < 0 || cfg.writePct < 0 || cfg.readPct+cfg.writePct > 100 {
		return nil, fmt.Errorf("-read + -write must lie in [0,100]")
	}
	if cfg.version != 2 && cfg.version != 3 {
		return nil, fmt.Errorf("-version must be 2 or 3")
	}
	if cfg.xfer == 0 || cfg.filesize == 0 {
		return nil, fmt.Errorf("-xfer and -filesize must be positive")
	}
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	return &cfg, nil
}

// bench runs the benchmark cfg describes and writes its report.
func bench(cfg *config, stdout, stderr io.Writer) error {
	// Start the in-process server unless we were pointed at one.
	addr := cfg.addr
	if addr == "" {
		var trace func(*core.Record)
		if cfg.tracePath != "" {
			sink, err := newTraceSink(cfg.tracePath)
			if err != nil {
				return err
			}
			defer sink.Close()
			trace = sink.Write
		}
		ns, err := server.ListenTraced(server.New(vfs.New()), "127.0.0.1:0", trace)
		if err != nil {
			return err
		}
		defer ns.Close()
		addr = ns.Addr()
	} else if cfg.tracePath != "" {
		return fmt.Errorf("-trace taps the in-process server; it cannot trace an external -addr")
	}

	// Populate the benchmark namespace through the wire, so external
	// servers work identically to the in-process one.
	fhs, err := setupFiles(addr, cfg)
	if err != nil {
		return fmt.Errorf("populating %d files: %w", cfg.files, err)
	}

	// Popularity distributions: one over files, one over each file's
	// transfer-aligned blocks.
	blocks := int(cfg.filesize / cfg.xfer)
	if blocks < 1 {
		blocks = 1
	}
	zipfFile := workload.NewZipf(cfg.zipfS, cfg.zipfV, cfg.files)
	zipfBlock := workload.NewZipf(cfg.zipfS, cfg.zipfV, blocks)

	collector := stats.NewCollector()
	var completed atomic.Int64

	// Live printer.
	printerDone := make(chan struct{})
	var printerWG sync.WaitGroup
	start := time.Now()
	if cfg.interval > 0 {
		printerWG.Add(1)
		go func() {
			defer printerWG.Done()
			livePrinter(stderr, cfg.interval, &completed, start, printerDone)
		}()
	}

	// Launch clients. Client i runs opsFor(i) operations; each client's
	// draws come from its own seeded rng, so the aggregate op stream is
	// a pure function of the flags.
	var wg sync.WaitGroup
	var firstFailure atomic.Pointer[error]
	clients := make([]*client.NetClient, cfg.T)
	clientCounts := make([]map[string]int64, cfg.T)
	clientErrs := make([]error, cfg.T)
	for i := 0; i < cfg.T; i++ {
		cl, err := client.DialNFS(addr, uint32(cfg.version), uint32(1000+i), 100)
		if err != nil {
			return fmt.Errorf("dialing client %d: %w", i, err)
		}
		defer cl.Close()
		clients[i] = cl
		wg.Add(1)
		go func(i int, cl *client.NetClient) {
			defer wg.Done()
			r := runner{
				cfg: cfg, client: cl, clientIdx: i,
				fhs: fhs, zipfFile: zipfFile, zipfBlock: zipfBlock,
				collector: collector, completed: &completed,
				firstFailure: &firstFailure,
				counts:       make(map[string]int64),
			}
			if cfg.rate > 0 {
				clientErrs[i] = r.openLoop()
			} else {
				clientErrs[i] = r.closedLoop()
			}
			clientCounts[i] = r.counts
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(printerDone)
	printerWG.Wait()
	for i, err := range clientErrs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}

	// A reply no call was waiting for is a reply the server sent twice
	// or for a call never made: a failure like any other.
	var unmatched int64
	for _, cl := range clients {
		unmatched += cl.Unmatched.Load()
	}
	rep := buildReport(cfg, elapsed, collector, clientCounts, unmatched)
	out := stdout
	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	all := rep.Classes["all"]
	fmt.Fprintf(stderr, "nfsbench: %d ops in %.2fs = %.0f ops/s; p50 %.0fµs p90 %.0fµs p99 %.0fµs p999 %.0fµs; %d errors\n",
		rep.TotalOps, rep.ElapsedSec, rep.ThroughputOpsPerSec,
		all.P50Us, all.P90Us, all.P99Us, all.P999Us, rep.Errors)
	if err := firstFailure.Load(); err != nil {
		fmt.Fprintln(stderr, "nfsbench: first failure:", *err)
	}
	return nil
}

// opsFor splits the -n total across clients, front-loading the
// remainder, so every run distributes identically.
func (c *config) opsFor(i int) int {
	ops := c.n / c.T
	if i < c.n%c.T {
		ops++
	}
	return ops
}

// benchFileName names file i in the shared benchmark namespace.
func benchFileName(i int) string { return fmt.Sprintf("bench%05d", i) }

// setupFiles makes sure the benchmark population exists on the server
// (lookup, create + truncate on miss) and returns the file handles.
func setupFiles(addr string, cfg *config) ([]nfs.FH, error) {
	admin, err := client.DialNFS(addr, uint32(cfg.version), 0, 0)
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	root := nfs.MakeFH(cfg.rootIno)
	fhs := make([]nfs.FH, cfg.files)
	for i := range fhs {
		name := benchFileName(i)
		fh, status, err := admin.NetLookup(root, name)
		if err != nil {
			return nil, err
		}
		switch status {
		case nfs.OK:
			fhs[i] = fh
			continue
		case nfs.ErrNoEnt:
		default:
			return nil, fmt.Errorf("lookup %s: status %d", name, status)
		}
		fh, status, err = admin.NetCreate(root, name)
		if err != nil {
			return nil, err
		}
		if status != nfs.OK {
			return nil, fmt.Errorf("create %s: status %d", name, status)
		}
		if status, err := admin.NetTruncate(fh, cfg.filesize); err != nil {
			return nil, err
		} else if status != nfs.OK {
			return nil, fmt.Errorf("truncate %s: status %d", name, status)
		}
		fhs[i] = fh
	}
	return fhs, nil
}

// runner is one client's benchmark state.
type runner struct {
	cfg       *config
	client    *client.NetClient
	clientIdx int
	fhs       []nfs.FH
	zipfFile  *workload.Zipf
	zipfBlock *workload.Zipf
	collector *stats.Collector
	completed *atomic.Int64
	counts    map[string]int64

	// firstFailure keeps the first error any runner saw, for the
	// closing summary line.
	firstFailure *atomic.Pointer[error]
}

// rng builds the deterministic generator for one draw stream of this
// client. Different salts give workers independent streams.
func (r *runner) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed + int64(r.clientIdx)*1000003 + salt*7919))
}

// draw decides the next operation from the mix and the Zipfian
// popularity distributions.
func (r *runner) draw(rng *rand.Rand) op {
	var o op
	mix := rng.Intn(100)
	switch {
	case mix < r.cfg.readPct:
		o.kind = kindRead
	case mix < r.cfg.readPct+r.cfg.writePct:
		o.kind = kindWrite
	default:
		// Metadata: the paper's traffic is dominated by attribute and
		// name operations; cycle over the three big ones.
		o.kind = kindGetattr + rng.Intn(3)
	}
	o.file = r.zipfFile.Rank(rng.Float64())
	if o.kind == kindRead || o.kind == kindWrite {
		o.off = uint64(r.zipfBlock.Rank(rng.Float64())) * r.cfg.xfer
	}
	return o
}

// execute performs one operation on the wire and returns the NFS
// status. A reply that fails a check is an error, like a transport
// failure: a READ must carry as many bytes as its count says (and, from
// the in-process server, exactly server.Filler's), a WRITE must report
// all -xfer bytes written, and a LOOKUP must return the handle set-up
// recorded for the name. A READ's data is copied into buf (fresh memory
// when buf is nil), which must not be in use by another operation.
func (r *runner) execute(o op, buf []byte) (uint32, error) {
	fh := r.fhs[o.file]
	xfer := uint32(r.cfg.xfer)
	switch o.kind {
	case kindRead:
		n, data, status, err := r.client.NetReadInto(fh, o.off, xfer, buf)
		if err == nil && status == nfs.OK {
			err = r.checkRead(o, n, data)
		}
		return status, err
	case kindWrite:
		n, status, err := r.client.NetWriteCount(fh, o.off, xfer)
		if err == nil && status == nfs.OK && n != xfer {
			err = fmt.Errorf("WRITE of %d bytes at %d: reply count %d", xfer, o.off, n)
		}
		return status, err
	case kindGetattr:
		return r.client.NetGetattr(fh)
	case kindLookup:
		name := benchFileName(o.file)
		got, status, err := r.client.NetLookup(nfs.MakeFH(r.cfg.rootIno), name)
		if err == nil && status == nfs.OK && !got.Equal(fh) {
			err = fmt.Errorf("LOOKUP %s: handle %s, set-up recorded %s", name, got, fh)
		}
		return status, err
	default:
		return r.client.NetAccess(fh)
	}
}

// checkRead validates one successful READ reply.
func (r *runner) checkRead(o op, n uint32, data []byte) error {
	if int(n) != len(data) {
		return fmt.Errorf("READ at %d: reply count %d, %d data bytes", o.off, n, len(data))
	}
	if r.cfg.checkData && !bytes.Equal(data, server.Filler(len(data))) {
		return fmt.Errorf("READ at %d: %d data bytes differ from the server's content", o.off, n)
	}
	return nil
}

// measure runs one operation, charging latency from issueAt (wall time
// for closed loop, intended arrival for open loop), with buf as
// execute's READ buffer.
func (r *runner) measure(shard *stats.LatencyShard, o op, issueAt time.Time, buf []byte) {
	class := kindClass[o.kind]
	status, err := r.execute(o, buf)
	if err == nil && status != nfs.OK {
		err = fmt.Errorf("%s: status %d", kindName[o.kind], status)
	}
	if err != nil {
		shard.RecordError(class)
		r.firstFailure.CompareAndSwap(nil, &err)
	} else {
		shard.Record(class, time.Since(issueAt).Seconds())
	}
	r.completed.Add(1)
}

// closedLoop keeps cfg.outstanding operations in flight by running that
// many synchronous workers over the shared connection. Each worker owns
// a deterministic draw stream, a collector shard and the buffer its
// READs land in.
func (r *runner) closedLoop() error {
	total := r.cfg.opsFor(r.clientIdx)
	workers := r.cfg.outstanding
	var wg sync.WaitGroup
	countsMu := sync.Mutex{}
	for w := 0; w < workers; w++ {
		ops := total / workers
		if w < total%workers {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			rng := r.rng(int64(w))
			shard := r.collector.Shard()
			buf := make([]byte, r.cfg.xfer)
			local := make(map[string]int64, numKinds)
			for i := 0; i < ops; i++ {
				o := r.draw(rng)
				local[kindName[o.kind]]++
				r.measure(shard, o, time.Now(), buf)
			}
			countsMu.Lock()
			for k, v := range local {
				r.counts[k] += v
			}
			countsMu.Unlock()
		}(w, ops)
	}
	wg.Wait()
	return nil
}

// openLoop issues operations on a Poisson arrival schedule at
// rate/T ops/sec, without waiting for completions (bounded by
// -maxinflight). Latency is measured from the intended arrival time.
// Each operation runs on a goroutine of its own, so each READ gets a
// fresh data buffer.
func (r *runner) openLoop() error {
	total := r.cfg.opsFor(r.clientIdx)
	perClientRate := r.cfg.rate / float64(r.cfg.T)
	if perClientRate <= 0 {
		return fmt.Errorf("open loop needs a positive -rate")
	}
	rng := r.rng(0)
	shard := r.collector.Shard()
	sem := make(chan struct{}, r.cfg.maxInflight)
	start := time.Now()
	next := 0.0
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		// Draw before sleeping: the op stream stays a pure function of
		// the seed no matter how the schedule slips.
		o := r.draw(rng)
		r.counts[kindName[o.kind]]++
		next += rng.ExpFloat64() / perClientRate
		arrival := start.Add(time.Duration(next * float64(time.Second)))
		time.Sleep(time.Until(arrival))
		sem <- struct{}{}
		wg.Add(1)
		go func(o op, arrival time.Time) {
			defer wg.Done()
			r.measure(shard, o, arrival, nil)
			<-sem
		}(o, arrival)
	}
	wg.Wait()
	return nil
}

// livePrinter reports interval and cumulative throughput, SDPaxos
// readings-channel style, until told to stop.
func livePrinter(w io.Writer, interval time.Duration, completed *atomic.Int64, start time.Time, done <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := int64(0)
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			cur := completed.Load()
			elapsed := time.Since(start).Seconds()
			fmt.Fprintf(w, "%7.1fs %10d ops %9.0f ops/s interval %9.0f ops/s cumulative\n",
				elapsed, cur,
				float64(cur-prev)/interval.Seconds(),
				float64(cur)/elapsed)
			prev = cur
		}
	}
}

// Report is the machine-readable result. With a fixed seed, TotalOps
// and OpCounts are bit-reproducible across runs; timing fields are not.
// Errors counts failed operations, replies that failed a check, and
// Unmatched: replies whose xid matched no outstanding call.
type Report struct {
	Config              ReportConfig           `json:"config"`
	ElapsedSec          float64                `json:"elapsed_sec"`
	TotalOps            int64                  `json:"total_ops"`
	Errors              int64                  `json:"errors"`
	Unmatched           int64                  `json:"unmatched"`
	ThroughputOpsPerSec float64                `json:"throughput_ops_per_sec"`
	OpCounts            map[string]int64       `json:"op_counts"`
	Classes             map[string]ClassReport `json:"classes"`
}

// ReportConfig echoes the run parameters into the report.
type ReportConfig struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Clients     int     `json:"clients"`
	Outstanding int     `json:"outstanding"`
	RateOpsSec  float64 `json:"rate_ops_per_sec,omitempty"`
	Ops         int     `json:"ops"`
	Files       int     `json:"files"`
	FileSize    uint64  `json:"filesize"`
	Xfer        uint64  `json:"xfer"`
	ReadPct     int     `json:"read_pct"`
	WritePct    int     `json:"write_pct"`
	ZipfS       float64 `json:"zipf_s"`
	ZipfV       float64 `json:"zipf_v"`
	Version     int     `json:"nfs_version"`
	Seed        int64   `json:"seed"`
}

// ClassReport carries one operation class's latency summary and CDF.
type ClassReport struct {
	Ops    int64      `json:"ops"`
	Errors int64      `json:"errors"`
	MeanUs float64    `json:"mean_us"`
	MinUs  float64    `json:"min_us"`
	MaxUs  float64    `json:"max_us"`
	P50Us  float64    `json:"p50_us"`
	P90Us  float64    `json:"p90_us"`
	P99Us  float64    `json:"p99_us"`
	P999Us float64    `json:"p999_us"`
	CDF    []CDFPoint `json:"cdf"`
}

// CDFPoint is one step of the latency CDF: Fraction of this class's
// operations completed in at most LeUs microseconds.
type CDFPoint struct {
	LeUs     float64 `json:"le_us"`
	Count    int64   `json:"count"`
	Fraction float64 `json:"fraction"`
}

const usec = 1e6

func classReport(h *stats.LatencyHist, errs int64) ClassReport {
	rep := ClassReport{
		Ops:    h.Count(),
		Errors: errs,
		MeanUs: h.Mean() * usec,
		MinUs:  h.Min() * usec,
		MaxUs:  h.Max() * usec,
		P50Us:  h.Percentile(50) * usec,
		P90Us:  h.Percentile(90) * usec,
		P99Us:  h.Percentile(99) * usec,
		P999Us: h.Percentile(99.9) * usec,
	}
	for _, p := range h.CDF() {
		rep.CDF = append(rep.CDF, CDFPoint{LeUs: p.Upper * usec, Count: p.Count, Fraction: p.Cum})
	}
	return rep
}

func buildReport(cfg *config, elapsed time.Duration, col *stats.Collector, clientCounts []map[string]int64, unmatched int64) *Report {
	mode := "closed"
	if cfg.rate > 0 {
		mode = "open"
	}
	total := col.Total()
	rep := &Report{
		Config: ReportConfig{
			Mode: mode, Clients: cfg.T, Outstanding: cfg.outstanding,
			RateOpsSec: cfg.rate, Ops: cfg.n, Files: cfg.files,
			FileSize: cfg.filesize, Xfer: cfg.xfer,
			ReadPct: cfg.readPct, WritePct: cfg.writePct,
			ZipfS: cfg.zipfS, ZipfV: cfg.zipfV,
			Version: cfg.version, Seed: cfg.seed,
		},
		ElapsedSec:          elapsed.Seconds(),
		TotalOps:            int64(cfg.n),
		Errors:              col.TotalErrors() + unmatched,
		Unmatched:           unmatched,
		ThroughputOpsPerSec: float64(total.Count()) / elapsed.Seconds(),
		OpCounts:            make(map[string]int64),
		Classes: map[string]ClassReport{
			"read":  classReport(col.Class(stats.OpRead), col.Errors(stats.OpRead)),
			"write": classReport(col.Class(stats.OpWrite), col.Errors(stats.OpWrite)),
			"meta":  classReport(col.Class(stats.OpMeta), col.Errors(stats.OpMeta)),
			"all":   classReport(total, col.TotalErrors()),
		},
	}
	for _, counts := range clientCounts {
		for k, v := range counts {
			rep.OpCounts[k] += v
		}
	}
	return rep
}
