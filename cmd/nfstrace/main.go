// nfstrace is the sniffer: it reads a pcap capture of NFS traffic and
// emits timestamped trace records, one line per call and reply — the
// reproduction of the paper's tcpdump-derived tracing software (§2).
//
// It decodes NFSv2 and NFSv3 over UDP (reassembling IP fragments) and
// TCP (reassembling streams and RPC record marking), matches replies to
// calls by transaction id, and can anonymize on the fly.
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
		"nfstrace: %d packets, %d calls, %d replies, %d orphan replies (loss est %.2f%%), %d decode errors\n",
		st.Packets, st.Calls, st.Replies, st.OrphanReplies, 100*st.LossEstimate(), st.DecodeErrors)
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
	tw := core.NewWriter(w)
	var werr error
	sn := capture.NewSniffer(func(rec *core.Record) {
		if werr == nil {
			werr = tw.Write(rec)
		}
	})
	sn.Anon = anonymizer
	if err := sn.ReadPcap(pr); err != nil {
		return sn.Stats, err
	}
	if werr == nil {
		werr = tw.Flush()
	}
	if werr != nil {
		return sn.Stats, werr
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
