// Quickstart: simulate a day of the CAMPUS email system, then run the
// paper's headline analyses over the resulting NFS trace.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro"
	"repro/internal/analysis"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	// A small Sunday+Monday window: 4 users is plenty to see shape.
	scale := repro.Scale{CampusUsers: 4, EECSClients: 2, Days: 2, Seed: 1}
	fmt.Println("generating a 2-day CAMPUS trace...")
	campus := repro.GenerateCampus(scale)
	fmt.Printf("  %d operations (%d calls matched to replies)\n\n",
		len(campus.Ops), campus.Join.Matched)

	// One pass of the sharded engine feeds all three reducers.
	sum := &pipeline.SummaryAnalyzer{Days: campus.Days}
	// Run detection with the paper's 10ms reorder window.
	runs := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(10)}
	// Block lifetimes over the Monday window.
	life := &pipeline.BlockLifeAnalyzer{
		Start: workload.Day + 9*workload.Hour, Phase: 6 * workload.Hour, Margin: 6 * workload.Hour}
	pipeline.RunSlice(campus.Pipeline, campus.Ops, sum, runs, life)

	// Table-2-style summary.
	fmt.Printf("daily activity: %s\n\n", sum.Result)

	// The workload's signature: almost everything is email.
	fmt.Println(repro.TopProcs(campus))

	tab := runs.Table()
	fmt.Printf("runs: %d total — reads %.0f%% (entire %.0f%%), writes %.0f%% (seq %.0f%%)\n\n",
		tab.TotalRuns, tab.ReadPct, tab.Read[analysis.PatternEntire],
		tab.WritePct, tab.Write[analysis.PatternSequential])

	bl := life.Result
	fmt.Printf("block lifetimes (Mon 9am, 6h+6h): %d births, %d deaths, median life %.0fs\n",
		bl.Births, bl.Deaths, bl.Lifetimes.Median())
	fmt.Printf("  deaths: %.1f%% overwrite, %.1f%% truncate, %.1f%% delete\n",
		bl.DeathPct(analysis.DeathOverwrite),
		bl.DeathPct(analysis.DeathTruncate),
		bl.DeathPct(analysis.DeathDelete))
}
