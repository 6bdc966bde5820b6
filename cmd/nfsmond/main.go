// nfsmond is the always-on form of nfsanalyze: a monitoring daemon
// that ingests a live NFS trace, folds it through the same sharded
// pipeline and joiner the batch tool uses, and serves the paper's
// reductions over HTTP while the stream is still flowing. Mid-stream
// consistency comes from the pipeline's snapshot support: every report
// is a barrier-consistent fork of the analyzers, finished as if the
// stream had ended at that instant, while ingest continues undisturbed.
//
// Sources:
//
//   - a growing trace file with tail semantics (-follow): the daemon
//     keeps reading as the producer appends, surviving rotation and
//     truncation — point it at the file an nfsbench -trace run (or a
//     capture sniffer) is writing;
//   - a static trace file: ingested to EOF, then served until stopped;
//   - stdin (-i -): a socket feed via any relay, e.g.
//     `nc -l 9099 | nfsmond -i -`.
//
// A static file and stdin take any format nfsanalyze reads — text,
// binary, either one gzip-compressed — and are decoded on a read-ahead
// goroutine that hands over every record as soon as it is decoded, so
// a live feed is never held back. -follow tails text only.
//
// Analyses come from the one catalog in internal/jobspec that
// nfsanalyze -analysis reads, with the same configurations and the
// same tables. -analyses names any of the kinds that have a JSON form
// — summary, hierarchy, runs, blocklife, reorder, peak (file instances
// of trace hours 9–17 of the first day) and mailbox — or all of them
// with "all"; summary is always maintained. hourly and names have no
// JSON form and are refused.
//
// Endpoints:
//
//	/metrics       Prometheus-style text: per-procedure op counters,
//	               joiner match/orphan/pending, window lag, ingest rate
//	/api/summary   Table 2 reduction over the whole stream so far
//	/api/windows   per-window series from the tumbling ring
//	/api/sliding   the newest k windows merged (?k=, default -slide)
//	/api/analyses  every registered analyzer's table, one snapshot
//	/healthz       liveness
//
// Usage:
//
//	nfsmond -i live.trace -follow -listen 127.0.0.1:9911
//	nfsbench -trace live.trace -rate 500 -n 100000 &
//	curl -s 127.0.0.1:9911/metrics | grep nfsmond_window_lag
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		if err != errUsage {
			fmt.Fprintln(os.Stderr, "nfsmond:", err)
		}
		os.Exit(1)
	}
}

var errUsage = errors.New("usage")

type config struct {
	input    string
	follow   bool
	poll     time.Duration
	listen   string
	workers  int
	width    float64
	keep     int
	slide    int
	rebase   bool
	analyses string
}

// run is main's logic behind injectable streams and a stop channel, so
// the daemon is testable end to end without signals.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("nfsmond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.input, "i", "", "input trace file (\"-\" for stdin; required)")
	fs.BoolVar(&cfg.follow, "follow", false, "tail the input: keep reading as it grows, surviving rotation")
	fs.DurationVar(&cfg.poll, "poll", core.DefaultTailPoll, "tail poll interval at EOF (with -follow)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9911", "HTTP listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "pipeline shard count (0 = one per CPU)")
	fs.Float64Var(&cfg.width, "window", 60, "tumbling window width in seconds")
	fs.IntVar(&cfg.keep, "keep", 60, "windows retained in the ring")
	fs.IntVar(&cfg.slide, "slide", 5, "default k for the sliding view")
	fs.BoolVar(&cfg.rebase, "rebase", false, "rebase record times to the first record (for wall-clock feeds into time-anchored analyses)")
	fs.StringVar(&cfg.analyses, "analyses", "summary,hierarchy",
		"comma-separated analyses to maintain: "+strings.Join(jobspec.JSONKinds(), ", ")+
			", or all for every one of them")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	if cfg.input == "" {
		fmt.Fprintln(stderr, "nfsmond: -i is required")
		return errUsage
	}

	sets, err := analysisSets(cfg.analyses)
	if err != nil {
		return err
	}
	d := newDaemon(pipeline.Config{Workers: cfg.workers}, cfg.width, cfg.keep, cfg.slide, cfg.rebase, sets)

	// Bind before ingest starts so the daemon is scrapeable from the
	// first record.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "nfsmond: serving on http://%s\n", ln.Addr())

	open, closeSrc, err := openSource(cfg)
	if err != nil {
		srv.Close()
		return err
	}

	ingestDone := make(chan error, 1)
	go func() { ingestDone <- d.ingestLoop(open) }()

	select {
	case <-stop:
		// Stop the source; the ingest loop drains what is already
		// buffered and exits.
		closeSrc()
		<-ingestDone
	case err := <-ingestDone:
		if err != nil {
			srv.Close()
			closeSrc()
			return err
		}
		// Static input fully ingested: keep serving until stopped.
		fmt.Fprintln(stderr, "nfsmond: input drained; serving final state")
		<-stop
		closeSrc()
	}

	d.finalize(stdout)
	srv.Close()
	<-httpDone
	return nil
}

// openSource prepares the configured input. It returns an opener,
// which the ingest goroutine calls, and a stopper, which may run from
// any goroutine before, during or after the open: it ends a pending
// open or Next. A file or stdin opens through the read-ahead, as in
// nfsanalyze: text, binary or gzip, decoded on a goroutine of its own.
// Opening sniffs the format by reading the first bytes, which on a
// silent feed blocks until the producer writes, so it is left to the
// ingest goroutine.
func openSource(cfg config) (func() (core.RecordSource, error), func(), error) {
	if cfg.follow && cfg.input != "-" {
		// tail -F friendliness: the producer may not have created the
		// file yet, and start order shouldn't matter. An O_APPEND
		// producer is unaffected by the touch.
		if f, err := os.OpenFile(cfg.input, os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.Close()
		}
		tr, err := core.NewTailReader(cfg.input, cfg.poll)
		if err != nil {
			return nil, nil, err
		}
		return func() (core.RecordSource, error) { return tr, nil }, tr.Stop, nil
	}
	f := os.Stdin
	if cfg.input != "-" {
		var err error
		if f, err = os.Open(cfg.input); err != nil {
			return nil, nil, err
		}
	}
	in := &readAheadInput{f: f}
	return in.open, in.stop, nil
}

// readAheadInput is a file or stdin read through core.ReadAhead.
type readAheadInput struct {
	f       *os.File
	mu      sync.Mutex
	ra      *core.ReadAhead
	stopped bool
}

func (in *readAheadInput) open() (core.RecordSource, error) {
	ra, err := core.NewReadAhead(in.f)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ra = ra
	if in.stopped {
		ra.Stop()
	}
	return ra, nil
}

// stop makes Next return core.ErrReaderStopped after the batch in
// hand, and closes the file to end a read or a sniff in progress.
func (in *readAheadInput) stop() {
	in.mu.Lock()
	in.stopped = true
	if in.ra != nil {
		in.ra.Stop()
	}
	in.mu.Unlock()
	in.f.Close()
}

// analysisSets resolves the -analyses list into the catalog kinds
// nfsmond serves, in catalog order. Summary is always first: the
// summary endpoint and the final report read it.
func analysisSets(list string) ([]*jobspec.Set, error) {
	served := jobspec.JSONKinds()
	if list == "all" {
		list = strings.Join(served, ",")
	}
	picked := map[string]bool{"summary": true}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" && !slices.Contains(served, name) {
			return nil, fmt.Errorf("unknown analysis %q: nfsmond serves %s, or all", name, strings.Join(served, ", "))
		}
		picked[name] = true
	}
	var sets []*jobspec.Set
	for _, k := range served {
		if picked[k] {
			set, err := jobspec.Build(jobspec.Default(k))
			if err != nil {
				return nil, err
			}
			sets = append(sets, set)
		}
	}
	return sets, nil
}
