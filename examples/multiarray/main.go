// Multi-array example: the CAMPUS deployment spread users over fourteen
// disk arrays, each a virtual NFS host traced separately. This example
// simulates two arrays, stores each capture in the compact binary trace
// format, k-way merges them back into global time order, and runs a
// cross-array analysis — the workflow the paper's §3.2 infrastructure
// implies.
//
//	go run ./examples/multiarray
package main

import (
	"bytes"
	"fmt"
	"io"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func generateArray(name string, serverIP uint32, seed int64) *bytes.Buffer {
	sink := &client.SliceSink{}
	sorter := client.NewSortingSink(sink)
	cfg := workload.DefaultCampusConfig(3, 1.5, seed)
	cfg.ServerIP = serverIP
	workload.NewCampus(cfg, sorter).Run()
	sorter.Flush()

	var buf bytes.Buffer
	w := core.NewBinaryWriter(&buf)
	for _, rec := range sink.Records {
		if err := w.Write(rec); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d records, %d KB binary (%.0f bytes/record)\n",
		name, w.Count(), buf.Len()/1024, float64(buf.Len())/float64(w.Count()))
	return &buf
}

func main() {
	fmt.Println("simulating two CAMPUS disk arrays (home02, home03)...")
	home02 := generateArray("home02", 0x0a010002, 2)
	home03 := generateArray("home03", 0x0a010003, 3)

	// Merge the per-array captures into one time-ordered stream.
	merged, err := core.MergeAll(
		core.NewBinaryReader(home02),
		core.NewBinaryReader(home03),
	)
	if err != nil {
		panic(err)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Time > merged[i].Time {
			panic("merge broke time order")
		}
	}
	fmt.Printf("merged: %d records in global time order\n\n", len(merged))

	// Cross-array analysis over the merged stream: the streaming joiner
	// feeds the sharded engine directly.
	joiner := pipeline.NewJoiner(&core.SliceSource{Records: merged})
	sum := &pipeline.SummaryAnalyzer{Days: 1.5}
	run, err := pipeline.Run(pipeline.Config{}, joiner, sum)
	if err != nil {
		panic(err)
	}
	fmt.Printf("joined %d operations (%d calls matched)\n", run.Ops, joiner.Stats().Matched)
	fmt.Printf("both arrays: %s\n\n", sum.Result)

	// The per-array view survives the merge: records carry the virtual
	// host each array exposed.
	perServer := map[uint32]int{}
	for _, rec := range merged {
		if rec.Kind == core.KindCall {
			perServer[rec.Server]++
		}
	}
	fmt.Println("calls per array:")
	for server, n := range perServer {
		fmt.Printf("  array %08x: %d calls\n", server, n)
	}

	// The text round trip works on merged streams too.
	var text bytes.Buffer
	if err := repro.WriteTrace(&text, merged); err != nil {
		panic(err)
	}
	tr, err := repro.ReadTrace(io.Reader(&text))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntext round trip: %d ops preserved (%v)\n",
		len(tr.Ops), int64(len(tr.Ops)) == run.Ops)
}
