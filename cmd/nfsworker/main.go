// Command nfsworker is the remote analysis worker: it listens on a TCP
// port, accepts piece assignments from an `nfsanalyze -coordinator
// -remote` process, runs the requested analysis over trace bytes the
// coordinator streams to it (no shared filesystem needed), and streams
// the serialized partial state back. A piece is decoded, joined and
// reduced while it arrives: nothing is reassembled or written to disk,
// and what is buffered is bounded by the sizes the assignment announced.
// SIGTERM drains gracefully: the in-flight assignment finishes and
// flushes before the process exits.
//
// The -flaky flag injects deterministic faults for testing the
// coordinator's supervision: crash (die mid-result-stream), hang (stop
// heartbeating with the connection open), corrupt (flip a state byte so
// the checksum must reject it).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/dispatch"
	"repro/internal/jobspec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("nfsworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "address to serve assignments on")
	flaky := fs.String("flaky", "", "deterministic fault schedule: comma-separated fault[:N] entries, where fault is crash|hang|corrupt and N is the 1-based assignment number it fires on (no :N = every assignment), e.g. crash:1,corrupt:3")
	fs.String("tempdir", "", "no-op, accepted for old command lines: pieces are analysed as they arrive and never spooled")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "nfsworker: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	faultFor, err := parseFlaky(*flaky)
	if err != nil {
		fmt.Fprintf(stderr, "nfsworker: %v\n", err)
		return 2
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "nfsworker: %v\n", err)
		return 1
	}

	var logMu sync.Mutex
	logf := func(format string, fmtArgs ...interface{}) {
		logMu.Lock()
		fmt.Fprintf(stderr, "nfsworker: "+format+"\n", fmtArgs...)
		logMu.Unlock()
	}
	// The bound address line is load-bearing: with -listen :0, scripts
	// scrape it to learn the port.
	logf("listening on %s (pid %d)", lis.Addr(), os.Getpid())

	// jobspec.RunStream is jobspec.RunTask — the call nfsanalyze makes
	// for a piece it runs itself — over the connection's readers in place
	// of opened files, so worker output is bit-compatible with local
	// execution.
	w := &dispatch.Worker{
		Stream:   jobspec.RunStream,
		Logf:     logf,
		FaultFor: faultFor,
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		logf("%s: draining (in-flight assignment will finish)", s)
		w.Drain()
	}()

	if err := w.Serve(lis); err != nil {
		logf("serve: %v", err)
		return 1
	}
	logf("drained, exiting")
	return 0
}

// parseFlaky compiles the -flaky schedule into a FaultFor hook.
func parseFlaky(s string) (func(seq int) dispatch.Fault, error) {
	if s == "" {
		return nil, nil
	}
	always := dispatch.FaultNone
	at := map[int]dispatch.Fault{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, nstr, hasN := strings.Cut(entry, ":")
		var f dispatch.Fault
		switch name {
		case "crash":
			f = dispatch.FaultCrash
		case "hang":
			f = dispatch.FaultHang
		case "corrupt":
			f = dispatch.FaultCorrupt
		default:
			return nil, fmt.Errorf("-flaky: unknown fault %q (want crash, hang, or corrupt)", name)
		}
		if !hasN {
			if always != dispatch.FaultNone {
				return nil, fmt.Errorf("-flaky: multiple unconditional faults")
			}
			always = f
			continue
		}
		n, err := strconv.Atoi(nstr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-flaky: bad assignment number %q in %q", nstr, entry)
		}
		if _, dup := at[n]; dup {
			return nil, fmt.Errorf("-flaky: assignment %d scheduled twice", n)
		}
		at[n] = f
	}
	return func(seq int) dispatch.Fault {
		if f, ok := at[seq]; ok {
			return f
		}
		return always
	}, nil
}
