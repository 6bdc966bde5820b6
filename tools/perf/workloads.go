package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/tools/perf/job"
)

// scale sizes every workload's input. "full" is what BENCHMARK.json
// measures; "smoke" exercises every code path of the harness on tiny
// traces for the tests.
type scale struct {
	campusUsers   int
	campusDays    float64 // analyze_text, analyze_dist: generated, then cut to campusRecords
	campusRecords int64
	eecsClients   int
	binaryDays    float64 // analyze_binary
	liveDays      float64 // live_monitor
	pcapDays      float64 // capture_pcap
	pieces        int     // tracesplit -n for analyze_dist
	readOps       int     // serve_read -n
	writeOps      int     // serve_write -n
}

var scales = map[string]scale{
	"full": {campusUsers: 100, campusDays: 0.5, campusRecords: 150000, eecsClients: 4, binaryDays: 1.5, liveDays: 1,
		pcapDays: 0.5, pieces: 8, readOps: 60000, writeOps: 30000},
	"smoke": {campusUsers: 8, campusDays: 0.5, campusRecords: 6000, eecsClients: 2, binaryDays: 0.5, liveDays: 0.4,
		pcapDays: 0.4, pieces: 4, readOps: 4096, writeOps: 2048},
}

// pass is one measured repetition of a workload's fixed work.
type pass struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"rss_mb"`
	LatP50  float64 `json:"lat_p50_ms"`  // 0: the pass itself is the request (batch)
	LatTail float64 `json:"lat_tail_ms"` // 0: as above
	Failed  int64   `json:"failed"`      // work units that failed, timed out or were wrong
	Note    string  `json:"note,omitempty"`
	// Side carries CLI-side readings that feed per-layer metrics.
	Side map[string]float64 `json:"side,omitempty"`
}

// instance is one set-up of a workload: its inputs exist and its
// daemons run.
type instance struct {
	units   int64 // work units one pass attempts
	prepare func() error
	pass    func(deadline time.Duration) pass
	close   func()
	job     job.Job            // what the traced replay needs
	side    map[string]float64 // set-up readings that feed per-layer metrics
}

// newInstance is an instance with nothing to prepare and nothing to
// stop; set-ups fill in what they have.
func newInstance(units int64, side map[string]float64, jb job.Job) *instance {
	return &instance{units: units, side: side, job: jb,
		prepare: func() error { return nil }, close: func() {}}
}

// workload is one entry of the benchmark.
type workload struct {
	Name      string
	Unit      string // what work_per_s counts
	Why       string
	MinPasses int
	setup     func(e *env, sc scale, seed int64, dir string) (*instance, error)
}

var workloads = []workload{
	{"analyze_text", "records",
		"nfsanalyze summary over a CAMPUS text trace: text decode and call/reply join do the work and the reducer almost none, so a decode or join gain shows here and a reducer change must not",
		5, setupAnalyzeText},
	{"analyze_binary", "records",
		"nfsanalyze runs over an EECS binary trace: cheap decoder, state-heavy per-file reducer, write-dominated trace; binary ingest and reducer or memory changes show here, a text tokenizer change must not",
		5, setupAnalyzeBinary},
	{"analyze_dist", "records",
		"nfsanalyze -coordinator -remote over tracesplit pieces and two loopback nfsworker daemons, against the plain run on the unsplit trace: adds state encode/decode, blob transport, supervision, merge",
		5, setupAnalyzeDist},
	{"capture_pcap", "packets",
		"nfstrace over an EECS capture (UDP, standard MTU): pcap, wire decode and defragmentation, rpc and the nfs parsers feeding the text writer; the only workload where the capture codecs do the work",
		5, setupCapture},
	{"live_monitor", "records",
		"EECS text trace piped into nfsmond with every reducer and scraped 20 times during ingest: Fork deep copies of growing state, so clone/encode design and reducer cost show here and nowhere else",
		3, setupLive},
	{"serve_read", "ops",
		"nfsbench closed loop, 2 connections x 1 outstanding, 80% 8 KiB reads: reply-side opaque encode, shared inode locks, per-call cost of small messages through the 15% metadata ops",
		5, func(e *env, sc scale, seed int64, dir string) (*instance, error) {
			return setupServe(e, seed, dir, job.Serve{N: sc.readOps, T: 2, ReadPct: 80, WritePct: 5, Xfer: 8192, Files: 64, FileSize: 1 << 20})
		}},
	{"serve_write", "ops",
		"nfsbench closed loop, 2 connections x 1 outstanding, 80% 32 KiB writes on Zipf-hot files: call-side opaque decode, exclusive inode locks, quota accounting; a read gain paid for in write cost shows",
		5, func(e *env, sc scale, seed int64, dir string) (*instance, error) {
			return setupServe(e, seed, dir, job.Serve{N: sc.writeOps, T: 2, ReadPct: 5, WritePct: 80, Xfer: 32768, Files: 64, FileSize: 1 << 20})
		}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupDeadline bounds every set-up step and reference run.
const setupDeadline = 2 * time.Minute

var wroteRE = regexp.MustCompile(`nfsgen: wrote (\d+) (?:records|packets)`)

// generate runs nfsgen and returns how many records or packets it wrote.
func generate(e *env, side map[string]float64, args ...string) (int64, error) {
	res, err := e.run(setupDeadline, nil, "nfsgen", args...)
	if err != nil {
		return 0, err
	}
	m := wroteRE.FindSubmatch(res.stderr)
	if m == nil {
		return 0, fmt.Errorf("nfsgen: no count in %q", tail(res.stderr, 200))
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("nfsgen wrote %q units", m[1])
	}
	side["workload.gen_recs_per_s"] = float64(n) / res.wall.Seconds()
	return n, nil
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// campusTrace generates the CAMPUS text trace of analyze_text and
// analyze_dist. How much a CAMPUS seed generates varies (heavy-tailed
// mailboxes: 1.5x at 100 users, 2.7x at 12), so the trace is cut to a
// fixed record count: every seed then measures the same amount of work.
func campusTrace(e *env, sc scale, seed int64, side map[string]float64, trace string) (int64, error) {
	whole := trace + ".whole"
	if _, err := generate(e, side, "-system", "campus", "-users", strconv.Itoa(sc.campusUsers),
		"-days", f64(sc.campusDays), "-seed", strconv.FormatInt(seed, 10), "-o", whole); err != nil {
		return 0, err
	}
	n, err := truncateTrace(whole, trace, sc.campusRecords)
	if err != nil {
		return 0, err
	}
	return n, os.Remove(whole)
}

// truncateTrace copies the head of a text trace: at least want records
// (the whole trace if it is shorter), ending where no call is waiting
// for its reply, so that calls and replies still pair up. It reads only
// the three fields tracesplit reads for the same purpose: the C/R kind,
// client.port and the xid.
func truncateTrace(src, dst string, want int64) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	w := bufio.NewWriterSize(out, 1<<20)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	pending := make(map[string]int)
	var n int64
	for sc.Scan() {
		line := sc.Bytes()
		f := bytes.SplitN(line, []byte(" "), 7)
		if len(f) < 7 || len(f[1]) != 1 {
			return 0, fmt.Errorf("%s: record %d is not a trace line: %q", src, n+1, line)
		}
		key := string(f[2]) + " " + string(f[5])
		switch f[1][0] {
		case 'C':
			pending[key]++
		case 'R':
			if pending[key] > 1 {
				pending[key]--
			} else {
				delete(pending, key)
			}
		}
		w.Write(line)
		w.WriteByte('\n')
		if n++; n >= want && len(pending) == 0 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return n, out.Close()
}

var joinRE = regexp.MustCompile(`join: (\d+) calls, (\d+) replies, (\d+) unmatched calls, (\d+) orphan replies`)

// joinLine parses nfsanalyze's join line: calls, and whether every call
// found its reply.
func joinLine(out []byte) (calls int64, clean bool) {
	m := joinRE.FindSubmatch(out)
	if m == nil {
		return 0, false
	}
	calls, _ = strconv.ParseInt(string(m[1]), 10, 64)
	return calls, bytes.Equal(m[1], m[2]) && string(m[3]) == "0" && string(m[4]) == "0"
}

// analyzer is the shared shape of the analyze_* workloads: a reference
// run at -workers 1 -decoders 1, then passes whose stdout must equal it.
type analyzer struct {
	e        *env
	units    int64
	args     []string // nfsanalyze arguments of the measured run
	refArgs  []string // arguments of the reference run
	wantJoin bool     // the analysis prints a join line
	ref      []byte
	side     map[string]float64
}

func (a *analyzer) prepare() error {
	var out bytes.Buffer
	res, err := a.e.run(setupDeadline, &out, "nfsanalyze", a.refArgs...)
	if err != nil {
		return err
	}
	if out.Len() == 0 {
		return fmt.Errorf("reference run printed nothing")
	}
	if _, clean := joinLine(out.Bytes()); a.wantJoin && !clean {
		return fmt.Errorf("reference run: calls and replies do not pair up: %s", out.Bytes())
	}
	a.ref = out.Bytes()
	a.side["pipeline.single_thread_records_per_s"] = float64(a.units) / res.wall.Seconds()
	return nil
}

// run is one checked nfsanalyze execution.
func (a *analyzer) run(deadline time.Duration, args []string) (procResult, string) {
	var out bytes.Buffer
	res, err := a.e.run(deadline, &out, "nfsanalyze", args...)
	switch {
	case err != nil:
		return res, err.Error()
	case !bytes.Equal(out.Bytes(), a.ref):
		return res, fmt.Sprintf("output differs from the reference:\n%s", tail(out.Bytes(), 400))
	}
	return res, ""
}

// instance is the workload instance of a single-analyzer workload.
func (a *analyzer) instance(jb job.Job) *instance {
	inst := newInstance(a.units, a.side, jb)
	inst.prepare, inst.pass = a.prepare, a.pass
	return inst
}

func (a *analyzer) pass(deadline time.Duration) pass {
	res, note := a.run(deadline, a.args)
	p := pass{WallS: res.wall.Seconds(), CPUS: res.cpu.Seconds(), RSSMB: res.rssMB, Note: note}
	if note != "" {
		p.Failed = a.units
	}
	return p
}

func setupAnalyzeText(e *env, sc scale, seed int64, dir string) (*instance, error) {
	trace := filepath.Join(dir, "campus.trace")
	side := map[string]float64{}
	n, err := campusTrace(e, sc, seed, side, trace)
	if err != nil {
		return nil, err
	}
	a := &analyzer{e: e, units: n, wantJoin: true, side: side,
		args:    []string{"-analysis", "summary", "-i", trace},
		refArgs: []string{"-analysis", "summary", "-workers", "1", "-decoders", "1", "-i", trace}}
	return a.instance(job.Job{Trace: trace, Analysis: "summary"}), nil
}

func setupAnalyzeBinary(e *env, sc scale, seed int64, dir string) (*instance, error) {
	text := filepath.Join(dir, "eecs.trace")
	trace := filepath.Join(dir, "eecs.btrace")
	side := map[string]float64{}
	n, err := generate(e, side, "-system", "eecs", "-clients", strconv.Itoa(sc.eecsClients),
		"-days", f64(sc.binaryDays), "-seed", strconv.FormatInt(seed, 10), "-o", text)
	if err != nil {
		return nil, err
	}
	if _, err := e.run(setupDeadline, nil, "nfsconvert", "-binary", "-o", trace, text); err != nil {
		return nil, err
	}
	if err := os.Remove(text); err != nil {
		return nil, err
	}
	a := &analyzer{e: e, units: n, side: side,
		args:    []string{"-analysis", "runs", "-i", trace},
		refArgs: []string{"-analysis", "runs", "-workers", "1", "-decoders", "1", "-i", trace}}
	return a.instance(job.Job{Trace: trace, Analysis: "runs"}), nil
}

var (
	listeningRE = regexp.MustCompile(`listening on ([0-9.]+:\d+)`)
	dispatchRE  = regexp.MustCompile(`dispatch finished: (\d+)/(\d+) pieces remote \(dispatched (\d+), retries (\d+), speculations (\d+)`)
)

func setupAnalyzeDist(e *env, sc scale, seed int64, dir string) (*instance, error) {
	trace := filepath.Join(dir, "campus.trace")
	side := map[string]float64{}
	n, err := campusTrace(e, sc, seed, side, trace)
	if err != nil {
		return nil, err
	}
	if _, err := e.run(setupDeadline, nil, "tracesplit", "-n", strconv.Itoa(sc.pieces),
		"-o", filepath.Join(dir, "pieces", "p"), trace); err != nil {
		return nil, err
	}
	pieces, err := filepath.Glob(filepath.Join(dir, "pieces", "p-*.trace"))
	if err != nil || len(pieces) < 2 {
		return nil, fmt.Errorf("tracesplit left %d pieces (%v)", len(pieces), err)
	}
	var workers []*daemon
	stop := func() {
		for _, w := range workers {
			w.stop()
		}
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := e.start(false, "nfsworker", "-listen", "127.0.0.1:0", "-tempdir", dir)
		if err != nil {
			stop()
			return nil, err
		}
		workers = append(workers, w)
		m, err := w.waitLine(listeningRE, 10*time.Second)
		if err != nil {
			stop()
			return nil, err
		}
		addrs = append(addrs, m[1])
	}

	// The comparator is the plain run over the unsplit trace: the question
	// is what distributing costs over not distributing. Each has its own
	// reference, because the two do not always agree: on about one seed
	// in thirty the merged pieces count one run more or fewer than the
	// unsplit trace, and wherever several files are read as one trace set
	// (the pieces given to a plain run, or two files in one coordinator
	// piece, the default here) the k-way merge orders records of equal
	// timestamp differently from the original file. So -workers makes
	// every file its own piece, and the coordinator is held to the local
	// coordinator over the same pieces at one decoder: what must hold on
	// every seed is that remote execution changes nothing.
	perFile := strconv.Itoa(len(pieces))
	plain := &analyzer{e: e, units: n, side: side,
		args:    []string{"-analysis", "runs", "-i", trace},
		refArgs: []string{"-analysis", "runs", "-workers", "1", "-decoders", "1", "-i", trace}}
	coord := &analyzer{e: e, units: n, side: map[string]float64{},
		args: append([]string{"-analysis", "runs", "-coordinator", "-remote", strings.Join(addrs, ","),
			"-workers", perFile}, pieces...),
		refArgs: append([]string{"-analysis", "runs", "-coordinator", "-workers", perFile, "-decoders", "1"}, pieces...)}
	workerCPU := func() (total time.Duration) {
		for _, w := range workers {
			if c, err := procCPU(w.cmd.Process.Pid); err == nil {
				total += c
			}
		}
		return total
	}
	inst := newInstance(n, side, job.Job{Trace: trace, Analysis: "runs", Pieces: pieces})
	inst.close = stop
	inst.prepare = func() error {
		if err := plain.prepare(); err != nil {
			return err
		}
		return coord.prepare()
	}
	inst.pass = func(deadline time.Duration) pass {
		dres, note := plain.run(deadline, plain.args)
		if note != "" {
			return pass{Failed: n, Note: "plain comparator: " + note}
		}
		cpu0 := workerCPU()
		res, note := coord.run(deadline, coord.args)
		p := pass{WallS: res.wall.Seconds(), RSSMB: res.rssMB, Note: note,
			// /proc ticks are 10 ms: coarse per pass, exact enough over the run's median.
			CPUS: (res.cpu + workerCPU() - cpu0).Seconds(),
			Side: map[string]float64{"direct_wall_s": dres.wall.Seconds()}}
		for _, w := range workers {
			if rss, err := procPeakRSS(w.cmd.Process.Pid); err == nil {
				p.RSSMB += rss
			}
		}
		if m := dispatchRE.FindSubmatch(res.stderr); note == "" {
			// Every piece must have run remotely, first try, no duplicates:
			// anything else measures the supervision paths, not the workload.
			if m == nil || !bytes.Equal(m[1], m[2]) || string(m[4]) != "0" || string(m[5]) != "0" {
				p.Note = fmt.Sprintf("dispatch was not clean: %s", tail(res.stderr, 300))
			}
		}
		if p.Note != "" {
			p.Failed = n
		}
		return p
	}
	return inst, nil
}

var nfstraceRE = regexp.MustCompile(`nfstrace: (\d+) packets, (\d+) calls, (\d+) replies, (\d+) orphan replies \(loss est [0-9.]+%\), (\d+) decode errors`)

func setupCapture(e *env, sc scale, seed int64, dir string) (*instance, error) {
	capture := filepath.Join(dir, "eecs.pcap")
	side := map[string]float64{}
	n, err := generate(e, map[string]float64{}, "-system", "eecs", "-clients", strconv.Itoa(sc.eecsClients),
		"-days", f64(sc.pcapDays), "-seed", strconv.FormatInt(seed, 10), "-pcap", "-o", capture)
	if err != nil {
		return nil, err
	}
	var want [sha256.Size]byte // output hash of the first pass; every later pass must match
	var have bool
	inst := newInstance(n, side, job.Job{Pcap: capture})
	inst.pass = func(deadline time.Duration) pass {
		h := sha256.New()
		res, err := e.run(deadline, h, "nfstrace", "-r", capture)
		p := pass{WallS: res.wall.Seconds(), CPUS: res.cpu.Seconds(), RSSMB: res.rssMB}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		m := nfstraceRE.FindSubmatch(res.stderr)
		switch {
		case err != nil:
			p.Note = err.Error()
		case m == nil:
			p.Note = fmt.Sprintf("no statistics line: %s", tail(res.stderr, 200))
		case string(m[1]) != strconv.FormatInt(n, 10):
			p.Note = fmt.Sprintf("read %s packets, generated %d", m[1], n)
		case string(m[2]) == "0" || !bytes.Equal(m[2], m[3]) || string(m[4]) != "0" || string(m[5]) != "0":
			p.Note = fmt.Sprintf("calls and replies do not pair up cleanly: %s", m[0])
		case have && sum != want:
			p.Note = "output differs from the first pass"
		}
		if p.Note != "" {
			p.Failed = n
		} else if !have {
			want, have = sum, true
		}
		return p
	}
	return inst, nil
}

// scrapePoints is how many times live_monitor scrapes during ingest.
const scrapePoints = 20

var (
	servingRE = regexp.MustCompile(`serving on (http://[0-9.]+:\d+)`)
	drainedRE = regexp.MustCompile(`input drained`)
	recordsRE = regexp.MustCompile(`(?m)^nfsmond_records_total (\d+)`)
)

func setupLive(e *env, sc scale, seed int64, dir string) (*instance, error) {
	trace := filepath.Join(dir, "eecs.trace")
	side := map[string]float64{}
	n, err := generate(e, side, "-system", "eecs", "-clients", strconv.Itoa(sc.eecsClients),
		"-days", f64(sc.liveDays), "-seed", strconv.FormatInt(seed, 10), "-o", trace)
	if err != nil {
		return nil, err
	}
	var data []byte
	var cuts []int // data[cuts[i]:cuts[i+1]] is the i-th twentieth, cut at line ends
	var wantOps int64
	inst := newInstance(n, side, job.Job{Trace: trace})
	inst.prepare = func() error {
		// The reference: the batch tool's count of joined calls.
		var out bytes.Buffer
		if _, err := e.run(setupDeadline, &out, "nfsanalyze", "-analysis", "summary",
			"-workers", "1", "-decoders", "1", "-i", trace); err != nil {
			return err
		}
		var clean bool
		if wantOps, clean = joinLine(out.Bytes()); !clean {
			return fmt.Errorf("reference run: calls and replies do not pair up: %s", out.Bytes())
		}
		if data, err = os.ReadFile(trace); err != nil {
			return err
		}
		cuts = []int{0}
		for i := 1; i < scrapePoints; i++ {
			at := len(data) * i / scrapePoints
			nl := bytes.IndexByte(data[at:], '\n')
			if nl < 0 {
				break
			}
			cuts = append(cuts, at+nl+1)
		}
		cuts = append(cuts, len(data))
		return nil
	}
	inst.pass = func(deadline time.Duration) pass {
		p := livePass(e, deadline, data, cuts, n, wantOps)
		if p.Note != "" {
			p.Failed = n
		}
		return p
	}
	return inst, nil
}

// livePass starts nfsmond, writes the trace to its stdin a twentieth at
// a time with a scrape after each, waits for the ingest to drain,
// scrapes the full state, checks the totals and stops the daemon.
func livePass(e *env, deadline time.Duration, data []byte, cuts []int, records, wantOps int64) (p pass) {
	d, err := e.start(true, "nfsmond", "-i", "-", "-analyses", "all", "-listen", "127.0.0.1:0")
	if err != nil {
		return pass{Note: err.Error()}
	}
	defer func() {
		cpu, rss := d.stop()
		p.CPUS, p.RSSMB = cpu.Seconds(), rss
	}()
	m, err := d.waitLine(servingRE, 10*time.Second)
	if err != nil {
		return pass{Note: err.Error()}
	}
	base := m[1]
	hc := &http.Client{Timeout: deadline}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, time.Duration, error) {
		t0 := time.Now()
		resp, err := hc.Get(base + path)
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return body, time.Since(t0), err
	}

	expired := time.After(deadline)
	t0 := time.Now()
	var during []float64
	for i := 0; i+1 < len(cuts); i++ {
		if _, err := d.stdin.Write(data[cuts[i]:cuts[i+1]]); err != nil {
			return pass{Note: "writing the trace: " + err.Error()}
		}
		_, took, err := get("/api/analyses")
		if err != nil {
			return pass{Note: err.Error()}
		}
		during = append(during, took.Seconds()*1000)
		select {
		case <-expired:
			return pass{Note: fmt.Sprintf("past the %s deadline", deadline)}
		default:
		}
	}
	d.stdin.Close()
	if _, err := d.waitLine(drainedRE, deadline); err != nil {
		return pass{Note: err.Error()}
	}
	p.WallS = time.Since(t0).Seconds()

	var full []float64
	for i := 0; i < 5; i++ {
		_, took, err := get("/api/analyses")
		if err != nil {
			p.Note = err.Error()
			return p
		}
		full = append(full, took.Seconds()*1000)
	}
	// Scrape latency follows the seed (which files the generated users
	// touch decides how much state Fork copies) by ±20%, more than any
	// bound allows, so it is a per-layer reading; end to end the scrapes
	// count through the ingest rate they are part of.
	p.Side = map[string]float64{"nfsmond.scrape_p50_ms": median(during), "nfsmond.scrape_full_ms": median(full)}

	body, _, err := get("/api/summary")
	if err != nil {
		p.Note = err.Error()
		return p
	}
	var summary struct {
		Ops  int64 `json:"ops"`
		Join struct {
			Calls   int64 `json:"calls"`
			Replies int64 `json:"replies"`
		} `json:"join"`
	}
	if err := json.Unmarshal(body, &summary); err != nil {
		p.Note = "/api/summary: " + err.Error()
		return p
	}
	metrics, _, err := get("/metrics")
	if err != nil {
		p.Note = err.Error()
		return p
	}
	rm := recordsRE.FindSubmatch(metrics)
	switch {
	case summary.Ops != wantOps:
		p.Note = fmt.Sprintf("/api/summary ops %d, reference %d", summary.Ops, wantOps)
	case summary.Join.Calls != summary.Join.Replies:
		p.Note = fmt.Sprintf("join: %d calls, %d replies", summary.Join.Calls, summary.Join.Replies)
	case rm == nil || string(rm[1]) != strconv.FormatInt(records, 10):
		p.Note = fmt.Sprintf("nfsmond_records_total %s, generated %d", rm, records)
	}
	return p
}

// benchReport is the part of nfsbench's JSON report the benchmark reads.
type benchReport struct {
	ElapsedSec float64          `json:"elapsed_sec"`
	TotalOps   int64            `json:"total_ops"`
	Errors     int64            `json:"errors"`
	OpCounts   map[string]int64 `json:"op_counts"`
	Classes    map[string]struct {
		Ops    int64      `json:"ops"`
		MeanUs float64    `json:"mean_us"`
		CDF    []cdfPoint `json:"cdf"`
	} `json:"classes"`
}

func setupServe(e *env, seed int64, dir string, sf job.Serve) (*instance, error) {
	report := filepath.Join(dir, "report.json")
	// -c 1 is deliberate: wire.RecordConn shares its header buffer
	// between ReadRecord and WriteRecord, so a NetClient with more than
	// one call outstanding races (hangs, errors) on two cores.
	args := func(n int) []string {
		return []string{"-T", strconv.Itoa(sf.T), "-c", "1", "-read", strconv.Itoa(sf.ReadPct),
			"-write", strconv.Itoa(sf.WritePct), "-xfer", strconv.FormatUint(sf.Xfer, 10),
			"-files", strconv.Itoa(sf.Files), "-filesize", strconv.FormatUint(sf.FileSize, 10),
			"-n", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10), "-interval", "0", "-json", report}
	}
	// nfsbench builds its own server and file population on every run,
	// so a workload's set-up is that start-up: a run of one op per
	// connection.
	if _, err := e.run(setupDeadline, nil, "nfsbench", args(sf.T)...); err != nil {
		return nil, err
	}
	var wantCounts string // op_counts of the first pass; the op stream is seed-determined
	units := int64(sf.N)
	inst := newInstance(units, map[string]float64{}, job.Job{Serve: &sf})
	inst.pass = func(deadline time.Duration) pass {
		res, err := e.run(deadline, nil, "nfsbench", args(sf.N)...)
		p := pass{CPUS: res.cpu.Seconds(), RSSMB: res.rssMB}
		if err != nil {
			p.Failed, p.Note = units, err.Error()
			return p
		}
		var rep benchReport
		raw, err := os.ReadFile(report)
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err != nil {
			p.Failed, p.Note = units, "report: "+err.Error()
			return p
		}
		counts, _ := json.Marshal(rep.OpCounts) // map keys marshal sorted
		all := rep.Classes["all"]
		switch {
		case rep.Errors != 0:
			p.Failed, p.Note = rep.Errors, fmt.Sprintf("%d operations failed", rep.Errors)
		case rep.TotalOps != units || all.Ops != units:
			p.Failed, p.Note = units, fmt.Sprintf("completed %d of %d operations", all.Ops, units)
		case wantCounts != "" && string(counts) != wantCounts:
			p.Failed, p.Note = units, fmt.Sprintf("op_counts %s, first pass %s", counts, wantCounts)
		}
		if wantCounts == "" && p.Note == "" {
			wantCounts = string(counts)
		}
		p.WallS = rep.ElapsedSec
		p.LatP50 = cdfPercentile(all.CDF, 50) / 1000
		p.LatTail = cdfPercentile(all.CDF, 99) / 1000
		p.Side = map[string]float64{"mean_us": all.MeanUs}
		for _, class := range []string{"read", "write", "meta"} {
			p.Side["client."+class+"_p50_us"] = cdfPercentile(rep.Classes[class].CDF, 50)
		}
		return p
	}
	return inst, nil
}
