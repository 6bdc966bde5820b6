// nfstrace is the sniffer: it reads a pcap capture of NFS traffic and
// emits timestamped trace records, one line per call and reply — the
// reproduction of the paper's tcpdump-derived tracing software (§2).
//
// It decodes NFSv2 and NFSv3 over UDP (reassembling IP fragments) and
// TCP (reassembling streams and RPC record marking), matches replies to
// calls by transaction id, and can anonymize on the fly.
//
// A capture may miss packets, as the paper's CAMPUS mirror port did
// under load. A TCP segment lost to the capture costs the records it
// carried: the stream skips the hole once the other side acknowledges
// bytes past it, and a record held behind the hole is written with the
// time of the packet that released it. The statistics line on stderr
// counts the inputs of the §4.1.4 loss estimate: replies whose call was
// never seen (orphans) and calls whose reply was never seen (unmatched:
// given up after 300 s, or still waiting when the capture ends). The
// estimate is the one nfsanalyze prints for its join. The line ends
// with the UDP datagrams given up with fragments missing: each was a
// call or reply the estimate cannot see, so a capture that drops
// datagrams loses more than the estimate says.
//
// Usage:
//
//	nfstrace -r capture.pcap -o trace.txt
//	nfstrace -r capture.pcap -anonymize -seed 42 -mapfile anon.map
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/anon"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/pcap"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, so that the
// golden test drives exactly what the binary does. It returns the exit
// status: 2 for a usage error, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nfstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("r", "", "pcap file to read (required)")
	out := fs.String("o", "", "trace output file (default stdout)")
	anonymize := fs.Bool("anonymize", false, "anonymize records")
	seed := fs.Int64("seed", 1, "anonymization seed")
	mapFile := fs.String("mapfile", "", "save (and pre-load, if present) the anonymization tables here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "nfstrace: -r is required")
		return 2
	}
	st, err := trace(*in, *out, *anonymize, *seed, *mapFile, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "nfstrace:", err)
		return 1
	}
	fmt.Fprintf(stderr,
		"nfstrace: %d packets, %d calls, %d replies, %d orphan replies (loss est %.2f%%), %d decode errors, %d unmatched calls, %d dropped datagrams\n",
		st.Packets, st.Calls, st.Replies, st.OrphanReplies, 100*st.LossEstimate(), st.DecodeErrors, st.UnmatchedCalls,
		st.DroppedDatagrams)
	return 0
}

// trace sniffs the capture at in and writes its records to the file out,
// or to stdout when out is empty.
func trace(in, out string, anonymize bool, seed int64, mapFile string, stdout io.Writer) (capture.Stats, error) {
	f, err := os.Open(in)
	if err != nil {
		return capture.Stats{}, err
	}
	defer f.Close()
	pr, err := pcap.NewReader(f)
	if err != nil {
		return capture.Stats{}, err
	}

	var anonymizer *anon.Anonymizer
	if anonymize {
		anonymizer = anon.New(anon.DefaultConfig(seed))
		if mapFile != "" {
			if mf, err := os.Open(mapFile); err == nil {
				err = anonymizer.Load(mf)
				mf.Close()
				if err != nil {
					return capture.Stats{}, fmt.Errorf("loading %s: %w", mapFile, err)
				}
			}
		}
	}

	w := stdout
	var of *os.File
	if out != "" {
		if of, err = os.Create(out); err != nil {
			return capture.Stats{}, err
		}
		defer of.Close()
		w = of
	}
	sn := capture.NewSniffer(nil)
	sn.Anon = anonymizer
	rw := startWriter(core.NewWriter(w), sn)
	sn.Emit = rw.emit
	err = sn.ReadPcap(pr)
	if werr := rw.close(); err == nil {
		err = werr
	}
	if err != nil {
		return sn.Stats, err
	}
	if of != nil {
		if err := of.Close(); err != nil {
			return sn.Stats, err
		}
	}

	if anonymizer != nil && mapFile != "" {
		mf, err := os.Create(mapFile)
		if err != nil {
			return sn.Stats, err
		}
		if err := anonymizer.Save(mf); err != nil {
			mf.Close()
			return sn.Stats, err
		}
		if err := mf.Close(); err != nil {
			return sn.Stats, err
		}
	}
	return sn.Stats, nil
}

// The sniffer hands records to the writer goroutine in batches of
// batchSize, at most batchDepth of them queued: per record, the
// hand-off costs a slice append, and a batch's wake-up is paid once
// per thousand records.
const (
	batchSize  = 1024
	batchDepth = 4
)

// recordWriter renders the sniffer's records on a goroutine of its
// own, so that decoding and rendering share the two stages of a
// pipeline. Records reach it in capture order, and each goes back to
// the sniffer for reuse once it is written; the emptied batches come
// back to emit. After a write error it writes nothing more but keeps
// taking batches, and it returns only once full is closed, so the
// sniffer never waits on a dead writer.
type recordWriter struct {
	full  chan []*core.Record // batches to write, in capture order
	empty chan []*core.Record // written batches for emit to refill
	batch []*core.Record      // the batch emit is filling
	done  chan struct{}       // closed once the goroutine has returned
	err   error               // the first write error; read after done
}

// startWriter starts the goroutine that writes records with tw and
// hands each back to rc.
func startWriter(tw *core.Writer, rc core.RecordRecycler) *recordWriter {
	w := &recordWriter{
		full: make(chan []*core.Record, batchDepth),
		// emit makes a batch only when empty holds none, so there are
		// never more than the queued ones, the one being written and the
		// one being filled: empty has room for all, and a send to it
		// never waits.
		empty: make(chan []*core.Record, batchDepth+2),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		for b := range w.full {
			for _, rec := range b {
				if w.err == nil {
					w.err = tw.Write(rec)
				}
				rc.Recycle(rec)
			}
			w.empty <- b[:0]
		}
		if w.err == nil {
			w.err = tw.Flush()
		}
	}()
	return w
}

// emit queues rec for writing; it is the sniffer's Emit.
func (w *recordWriter) emit(rec *core.Record) {
	if w.batch == nil {
		select {
		case w.batch = <-w.empty:
		default:
			w.batch = make([]*core.Record, 0, batchSize)
		}
	}
	w.batch = append(w.batch, rec)
	if len(w.batch) == batchSize {
		w.full <- w.batch
		w.batch = nil
	}
}

// close writes what is queued, flushes, waits for the goroutine to
// return and reports the first write error.
func (w *recordWriter) close() error {
	if len(w.batch) > 0 {
		w.full <- w.batch
		w.batch = nil
	}
	close(w.full)
	<-w.done
	return w.err
}
