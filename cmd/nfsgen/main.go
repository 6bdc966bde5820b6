// nfsgen generates synthetic CAMPUS or EECS NFS traffic and writes it
// as a text trace (default) or a pcap capture file (-pcap), reproducing
// the systems of "Passive NFS Tracing of Email and Research Workloads"
// (FAST 2003) at a configurable scale.
//
// Usage:
//
//	nfsgen -system campus -users 12 -days 7 -o campus.trace
//	nfsgen -system eecs -clients 4 -days 1 -o eecs.trace
//	nfsgen -system campus -users 2 -days 0.05 -pcap -o campus.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nfsgen:", err)
		os.Exit(1)
	}
}

// run is main's logic behind injectable streams, so the cmd tree is
// testable end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nfsgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "campus", "workload to generate: campus or eecs")
	users := fs.Int("users", 12, "CAMPUS user count")
	clients := fs.Int("clients", 4, "EECS workstation count")
	days := fs.Float64("days", 7, "trace window in days (0 = Sunday 00:00)")
	seed := fs.Int64("seed", 20011021, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	asPcap := fs.Bool("pcap", false, "emit a pcap capture instead of a text trace")
	asBinary := fs.Bool("binary", false, "emit the compact binary trace format")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// The generator hands its sink the records in capture order; with
	// -pcap it frames them into packets instead and the records go.
	var sink client.Sink = client.FuncSink(func(*core.Record, int) {})
	var tw core.RecordWriter
	var written int64
	var writeErr error
	if !*asPcap {
		tw = core.NewFormatWriter(w, *asBinary)
		sink = client.FuncSink(func(rec *core.Record, _ int) {
			if writeErr == nil {
				writeErr = tw.Write(rec)
				written++
			}
		})
	}
	var gen generator
	var mtu int
	switch *system {
	case "campus":
		gen, mtu = workload.NewCampus(workload.DefaultCampusConfig(*users, *days, *seed), sink), wire.JumboMTU
	case "eecs":
		gen, mtu = workload.NewEECS(workload.DefaultEECSConfig(*clients, *days, *seed), sink), wire.StandardMTU
	default:
		return fmt.Errorf("unknown system %q", *system)
	}
	if *asPcap {
		return writePcap(w, stderr, gen, mtu)
	}
	gen.Run()
	if writeErr != nil {
		return writeErr
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "nfsgen: wrote %d records\n", written)
	return nil
}

// generator is what nfsgen needs of a workload: CAMPUS and EECS alike.
type generator interface {
	Capture(sink client.PacketSink, mtu int)
	Run()
}

// packetWriter streams a capture into a pcap file, keeping the first
// write error.
type packetWriter struct {
	pw  *pcap.Writer
	err error
}

func (p *packetWriter) Packet(t float64, frame []byte) {
	if p.err == nil {
		p.err = p.pw.WritePacket(t, frame)
	}
}

// writePcap runs gen with a capture attached and writes its packets,
// which leave the generator in capture order, as they come.
func writePcap(w, stderr io.Writer, gen generator, mtu int) error {
	pw, err := pcap.NewWriter(w, true)
	if err != nil {
		return err
	}
	out := &packetWriter{pw: pw}
	gen.Capture(out, mtu)
	gen.Run()
	if out.err != nil {
		return out.err
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "nfsgen: wrote %d packets (NFSv%d-era capture)\n", pw.Count(), nfs.V3)
	return nil
}
