// Package job is the contract between the end-to-end runner and the
// traced replay (../layers): what the runner hands over and what the
// replay writes back, both as JSON files. It imports nothing from the
// repository.
package job

import "repro/tools/perf/span"

// Job names the workload and the inputs its set-up produced.
type Job struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    string   `json:"trace,omitempty"`    // text or binary trace file
	Analysis string   `json:"analysis,omitempty"` // nfsanalyze -analysis kind
	Pieces   []string `json:"pieces,omitempty"`   // tracesplit output
	Pcap     string   `json:"pcap,omitempty"`
	Serve    *Serve   `json:"serve,omitempty"`
	TempDir  string   `json:"temp_dir"`
}

// Serve mirrors the nfsbench flags of a serve_* workload.
type Serve struct {
	N        int    `json:"n"`
	T        int    `json:"t"`
	ReadPct  int    `json:"read_pct"`
	WritePct int    `json:"write_pct"`
	Xfer     uint64 `json:"xfer"`
	Files    int    `json:"files"`
	FileSize uint64 `json:"filesize"`
}

// Output is the traced run's result.
type Output struct {
	Metrics map[string]float64 `json:"metrics"`
	// InprocWallS is the whole pipeline replayed in-process un-staged;
	// the runner divides it by the CLI wall for perf.inproc_over_cli.
	InprocWallS float64     `json:"inproc_wall_s"`
	Spans       []span.Span `json:"spans"`
}
