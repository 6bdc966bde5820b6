// Quickstart: simulate a day of the CAMPUS email system, then run the
// paper's headline analyses over the resulting NFS trace.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	// A small Sunday+Monday window: 4 users is plenty to see shape.
	scale := repro.Scale{CampusUsers: 4, EECSClients: 2, Days: 2, Seed: 1}
	fmt.Println("generating a 2-day CAMPUS trace...")
	records := repro.GenerateCampusRecords(scale)

	// One pass of the sharded engine feeds all three reducers, straight
	// from the streaming call/reply joiner.
	sum := &pipeline.SummaryAnalyzer{}
	// Run detection with the paper's 10ms reorder window.
	runs := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(10)}
	// Block lifetimes over the Monday window.
	life := &pipeline.BlockLifeAnalyzer{
		Start: workload.Day + 9*workload.Hour, Phase: 6 * workload.Hour, Margin: 6 * workload.Hour}
	joiner := pipeline.NewJoiner(&core.SliceSource{Records: records})
	stats, err := pipeline.Run(pipeline.Config{}, joiner, sum, runs, life)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %d records, %d operations (%d calls matched to replies)\n\n",
		len(records), stats.Ops, joiner.Stats().Matched)

	// Table-2-style summary, its per-day rates over the generated days.
	sum.Result.Days = scale.Days
	fmt.Printf("daily activity: %s\n\n", sum.Result)

	// The workload's signature: almost everything is email. TopProcs is
	// one of the renders nfsrepro prints; GenerateCampus runs the same
	// simulation with every analysis they read.
	fmt.Println(repro.TopProcs(repro.GenerateCampus(scale)))

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
