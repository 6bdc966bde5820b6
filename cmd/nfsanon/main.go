// nfsanon anonymizes an existing text trace: consistent random
// replacement of UIDs, GIDs, IPs, and filename components, with
// per-component path handling and separate suffix mapping (§2 of the
// paper). The name features the analyses read are kept, so the
// anonymized trace analyzes as the raw one does.
//
// Usage:
//
//	nfsanon -i raw.trace -o anon.trace -seed 7 -mapfile site.map
//	nfsanon -i raw.trace -omit -o stripped.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/anon"
	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nfsanon:", err)
		os.Exit(1)
	}
}

// run is main's logic behind injectable streams, so the cmd tree is
// testable end to end.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nfsanon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input trace (default stdin)")
	out := fs.String("o", "", "output trace (default stdout)")
	seed := fs.Int64("seed", 1, "anonymization seed")
	omit := fs.Bool("omit", false, "omit names/uids/gids/ips entirely instead of mapping")
	mapFile := fs.String("mapfile", "", "save (and pre-load, if present) mapping tables here")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
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

	cfg := anon.DefaultConfig(*seed)
	cfg.Omit = *omit
	a := anon.New(cfg)
	if *mapFile != "" {
		if mf, err := os.Open(*mapFile); err == nil {
			if err := a.Load(mf); err != nil {
				mf.Close()
				return fmt.Errorf("loading %s: %w", *mapFile, err)
			}
			mf.Close()
		}
	}

	tr := core.NewReader(r)
	tw := core.NewWriter(w)
	var n int64
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		a.Record(rec)
		if err := tw.Write(rec); err != nil {
			return err
		}
		n++
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if *mapFile != "" {
		mf, err := os.Create(*mapFile)
		if err != nil {
			return err
		}
		if err := a.Save(mf); err != nil {
			mf.Close()
			return err
		}
		mf.Close()
	}
	uids, gids, ips, names, sufs := a.Stats()
	fmt.Fprintf(stderr, "nfsanon: %d records; mapped %d uids, %d gids, %d ips, %d names, %d suffixes\n",
		n, uids, gids, ips, names, sufs)
	return nil
}
