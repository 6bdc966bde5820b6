// nfsrepro regenerates every table and figure of "Passive NFS Tracing
// of Email and Research Workloads" (FAST 2003) from freshly simulated
// CAMPUS and EECS traces, printing each alongside the paper's published
// values.
//
// Usage:
//
//	nfsrepro                         # everything, default scale
//	nfsrepro -table 3                # one table
//	nfsrepro -figure 5               # one figure
//	nfsrepro -exp readahead          # one side experiment
//	nfsrepro -users 25 -clients 8    # bigger simulation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, so that the
// golden test drives exactly what the binary does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nfsrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	users := fs.Int("users", 12, "CAMPUS user count")
	clients := fs.Int("clients", 4, "EECS workstation count")
	days := fs.Float64("days", 7, "trace window in days")
	seed := fs.Int64("seed", 20011021, "random seed")
	table := fs.Int("table", 0, "regenerate only this table (1-5)")
	figure := fs.Int("figure", 0, "regenerate only this figure (1-5)")
	exp := fs.String("exp", "", "side experiment: nfsiod, names, readahead, loss, hierarchy, nvram, quiet")
	procs := fs.Bool("procs", false, "also print procedure mixes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale := repro.Scale{CampusUsers: *users, EECSClients: *clients, Days: *days, Seed: *seed}

	// Experiments that do not need the full traces run immediately.
	switch *exp {
	case "nfsiod":
		fmt.Fprint(stdout, repro.ExpNfsiod())
		return 0
	case "readahead":
		fmt.Fprint(stdout, repro.ExpReadahead())
		return 0
	case "loss":
		small := scale
		if small.Days > 1 {
			small.Days = 1
		}
		fmt.Fprint(stdout, repro.ExpLoss(small))
		return 0
	}

	fmt.Fprintf(stderr, "nfsrepro: generating CAMPUS (%d users) and EECS (%d clients), %.1f days...\n",
		*users, *clients, *days)
	start := time.Now()
	campus := repro.GenerateCampus(scale)
	eecs := repro.GenerateEECS(scale)
	fmt.Fprintf(stderr, "nfsrepro: %d + %d ops in %v\n",
		len(campus.Ops), len(eecs.Ops), time.Since(start).Round(time.Millisecond))

	switch *exp {
	case "names":
		fmt.Fprint(stdout, repro.ExpNames(campus))
		return 0
	case "nvram":
		fmt.Fprint(stdout, repro.ExpNVRAM(campus, eecs))
		return 0
	case "quiet":
		fmt.Fprint(stdout, repro.ExpQuiet(campus, eecs))
		return 0
	case "hierarchy":
		fmt.Fprint(stdout, repro.ExpHierarchy(campus))
		return 0
	case "":
	default:
		fmt.Fprintf(stderr, "nfsrepro: unknown experiment %q\n", *exp)
		return 2
	}

	tables := []func(*repro.Trace, *repro.Trace) string{
		repro.Table1, repro.Table2, repro.Table3, repro.Table4, repro.Table5,
	}
	figures := []func(*repro.Trace, *repro.Trace) string{
		repro.Figure1, repro.Figure2, repro.Figure3, repro.Figure4, repro.Figure5,
	}

	if *table != 0 {
		if *table < 1 || *table > 5 {
			fmt.Fprintln(stderr, "nfsrepro: -table must be 1-5")
			return 2
		}
		fmt.Fprint(stdout, tables[*table-1](campus, eecs))
		return 0
	}
	if *figure != 0 {
		if *figure < 1 || *figure > 5 {
			fmt.Fprintln(stderr, "nfsrepro: -figure must be 1-5")
			return 2
		}
		fmt.Fprint(stdout, figures[*figure-1](campus, eecs))
		return 0
	}

	if *procs {
		fmt.Fprintln(stdout, repro.TopProcs(campus))
		fmt.Fprintln(stdout, repro.TopProcs(eecs))
	}
	for _, fn := range tables {
		fmt.Fprintln(stdout, fn(campus, eecs))
	}
	for _, fn := range figures {
		fmt.Fprintln(stdout, fn(campus, eecs))
	}
	fmt.Fprintln(stdout, repro.ExpNfsiod())
	fmt.Fprintln(stdout, repro.ExpNames(campus))
	fmt.Fprintln(stdout, repro.ExpReadahead())
	fmt.Fprintln(stdout, repro.ExpHierarchy(campus))
	fmt.Fprintln(stdout, repro.ExpNVRAM(campus, eecs))
	fmt.Fprintln(stdout, repro.ExpQuiet(campus, eecs))
	return 0
}
