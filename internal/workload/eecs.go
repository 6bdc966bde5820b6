package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/vfs"
)

// EECSConfig parameterizes the EECS departmental workload (§3.1,
// §6.1.1): home directories for research, software development, and
// course work. The traffic is metadata-dominated (clients validating
// caches), write-heavy (browser caches, logs, builds), and far burstier
// than CAMPUS.
type EECSConfig struct {
	Seed    int64
	Clients int // workstations (the real system had dozens)
	Days    float64

	// MetadataBurstsPerDay is the per-client count of cache-validation
	// bursts (the getattr/lookup/access storms that dominate EECS).
	MetadataBurstsPerDay float64
	// BrowserSessionsPerDay is the per-client web-browsing session
	// count (writes page-cache files into the home directory).
	BrowserSessionsPerDay float64
	// BuildsPerDay is the per-client compile-job count.
	BuildsPerDay float64
	// EditSessionsPerDay is the per-client editing-session count.
	EditSessionsPerDay float64
	// LogWriteInterval is the mean seconds between unbuffered log/index
	// writes per client (the source of sub-second block deaths).
	LogWriteInterval float64
	// AppletChurnPerDay is the per-client count of Applet_*_Extern
	// create/delete pairs (window-manager noise; ~10,000/day
	// department-wide in the paper).
	AppletChurnPerDay float64
	// CronJobsPerNight is the per-client off-hours batch-job count.
	CronJobsPerNight float64
	// ScanJobsPerDay is the per-client count of multi-file read sweeps
	// (grep, find, data staging) — cold reads the client cache cannot
	// absorb.
	ScanJobsPerDay float64
	// DataJobsPerDay is the per-client daytime data-processing count
	// (long partial reads of the big research file).
	DataJobsPerDay float64
}

// DefaultEECSConfig returns the paper-calibrated configuration.
func DefaultEECSConfig(clients int, days float64, seed int64) EECSConfig {
	return EECSConfig{
		Seed:                  seed,
		Clients:               clients,
		Days:                  days,
		MetadataBurstsPerDay:  1100,
		BrowserSessionsPerDay: 8,
		BuildsPerDay:          6,
		EditSessionsPerDay:    10,
		LogWriteInterval:      60,
		AppletChurnPerDay:     600,
		CronJobsPerNight:      1.5,
		ScanJobsPerDay:        70,
		DataJobsPerDay:        4,
	}
}

// eecsHost is one workstation and its user's home directory state.
type eecsHost struct {
	cl        *client.Client
	uid, gid  uint32
	homeFH    nfs.FH
	srcDir    nfs.FH
	srcFiles  []string
	cacheDir  nfs.FH
	cacheN    int
	cacheLRU  []string
	logFH     nfs.FH
	logOff    uint64 // byte offset of the log tail (unbuffered appends)
	idxFH     nfs.FH
	idxSize   uint64
	dataFHs   []nfs.FH
	dataSizes []uint64
	appletN   int
	docNames  []string
	docDir    nfs.FH
}

// EECS is the assembled departmental system.
type EECS struct {
	cfg   EECSConfig
	rng   *rand.Rand
	sim   *Sim
	curve *DiurnalCurve
	night *DiurnalCurve
	srv   *server.Server
	hosts []*eecsHost
}

// ServerIPEECS is the filer's address.
const ServerIPEECS = 0x0a020001

// NewEECS builds the filer, workstations, and home directories.
// Records flow to sink in capture order.
func NewEECS(cfg EECSConfig, sink client.Sink) *EECS {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fs := vfs.New() // no quotas on EECS (§3.1)
	srv := server.New(fs)
	e := &EECS{
		cfg:   cfg,
		rng:   rng,
		sim:   newSim(cfg.Days*Day, sink),
		curve: NewDiurnalCurve(0.55), // research happens on weekends too
		srv:   srv,
	}
	fs.Clock = func() float64 { return e.sim.Now }

	// Night curve for cron jobs: the inverse of the day shape.
	var night DiurnalCurve
	day := NewDiurnalCurve(1.0)
	for h := range night {
		night[h] = 1.1 - day[h]
	}
	e.night = &night

	for i := 0; i < cfg.Clients; i++ {
		e.hosts = append(e.hosts, e.populateHost(fs, i))
	}
	return e
}

// Server exposes the simulated filer.
func (e *EECS) Server() *server.Server { return e.srv }

// Capture frames every workstation's traffic into packets at mtu for
// sink, in capture order, as Run releases it.
func (e *EECS) Capture(sink client.PacketSink, mtu int) { e.sim.capture(sink, mtu) }

func (e *EECS) populateHost(fs *vfs.FS, i int) *eecsHost {
	uid := uint32(3000 + i)
	gid := uint32(300)
	// Most clients speak NFSv3; a sizable minority still run v2. All
	// use UDP (§3.1).
	version := uint32(nfs.V3)
	if i%3 == 1 {
		version = nfs.V2
	}
	cl := e.sim.newHost(client.Config{
		IP: 0x0a020100 + uint32(i), UID: uid, GID: gid,
		Version: version, Proto: core.ProtoUDP,
		Daemons: 4, Seed: e.cfg.Seed ^ int64(i)*7919,
	}, e.srv, ServerIPEECS)
	cl.AttrTimeout = 30
	if version == nfs.V3 {
		cl.XferSize = 32768 // fast v3 workstations; v2 is capped at 8 KB
	}

	home, err := fs.MkdirAll(fmt.Sprintf("/home/u%03d", i), uid, gid)
	if err != nil {
		panic(err)
	}
	h := &eecsHost{cl: cl, uid: uid, gid: gid, homeFH: nfs.MakeFH(home.ID)}

	// Source tree: a project directory with .c/.h files.
	src, err := fs.Mkdir(home.ID, "project", uid, gid, 0755)
	if err != nil {
		panic(err)
	}
	h.srcDir = nfs.MakeFH(src.ID)
	nsrc := 12 + e.rng.Intn(20)
	for j := 0; j < nsrc; j++ {
		ext := ".c"
		if j%3 == 1 {
			ext = ".h"
		}
		name := fmt.Sprintf("mod%02d%s", j, ext)
		ino, err := fs.Create(src.ID, name, uid, gid, 0644)
		if err != nil {
			panic(err)
		}
		fs.Write(ino.ID, 0, uint64(2*1024+e.rng.Int63n(60*1024)))
		h.srcFiles = append(h.srcFiles, name)
	}

	// Browser cache directory (the paper's "somewhat perverse" load).
	cache, err := fs.MkdirAll(fmt.Sprintf("/home/u%03d/.netscape/cache", i), uid, gid)
	if err != nil {
		panic(err)
	}
	h.cacheDir = nfs.MakeFH(cache.ID)

	// Log and index files written by long-running jobs.
	logIno, err := fs.Create(home.ID, "experiment.log", uid, gid, 0644)
	if err != nil {
		panic(err)
	}
	h.logFH = nfs.MakeFH(logIno.ID)
	idxIno, err := fs.Create(home.ID, "results.idx", uid, gid, 0644)
	if err != nil {
		panic(err)
	}
	fs.Write(idxIno.ID, 0, 256*1024)
	h.idxFH = nfs.MakeFH(idxIno.ID)
	h.idxSize = 256 * 1024

	// Research data files, read in pieces by analysis jobs. Several
	// sub-4MB files rather than one giant one: EECS bytes come mostly
	// from files below a few megabytes (Figure 2).
	for j := 0; j < 4; j++ {
		dataIno, err := fs.Create(home.ID, fmt.Sprintf("trace%d.dat", j), uid, gid, 0644)
		if err != nil {
			panic(err)
		}
		dsz := uint64(512<<10) + uint64(e.rng.Int63n(3584<<10))
		fs.Write(dataIno.ID, 0, dsz)
		h.dataFHs = append(h.dataFHs, nfs.MakeFH(dataIno.ID))
		h.dataSizes = append(h.dataSizes, dsz)
	}

	// Documents edited interactively.
	docs, err := fs.Mkdir(home.ID, "papers", uid, gid, 0755)
	if err != nil {
		panic(err)
	}
	h.docDir = nfs.MakeFH(docs.ID)
	for _, dn := range []string{"paper.tex", "notes.txt", "slides.tex"} {
		ino, err := fs.Create(docs.ID, dn, uid, gid, 0644)
		if err != nil {
			panic(err)
		}
		fs.Write(ino.ID, 0, uint64(20*1024+e.rng.Int63n(130*1024)))
		h.docNames = append(h.docNames, dn)
	}
	return h
}

// Run schedules every host's activity and executes the window.
func (e *EECS) Run() {
	for _, h := range e.hosts {
		h := h
		PoissonSchedule(e.rng, e.curve, e.cfg.MetadataBurstsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.metadataBurst(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.BrowserSessionsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.browserSession(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.BuildsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.build(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.EditSessionsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.editSession(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.AppletChurnPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.appletChurn(h, t) }) })
		PoissonSchedule(e.rng, e.night, e.cfg.CronJobsPerNight, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.cronJob(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.ScanJobsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.scanJob(h, t) }) })
		PoissonSchedule(e.rng, e.curve, e.cfg.DataJobsPerDay, 0, e.sim.End,
			func(t float64) { e.sim.At(t, func(t float64) { e.dataJob(h, t) }) })
		e.scheduleLogWrite(h, e.rng.Float64()*e.cfg.LogWriteInterval)
		e.scheduleLogRotation(h, (4+e.rng.Float64()*4)*Hour)
	}
	e.sim.Run()
}

// metadataBurst models cache validation: an activity period in which
// the desktop and its applications check tens of files' attributes
// (lookup + getattr + access) across the home directory — the calls
// that dominate the EECS op mix. Reads are nearly all absorbed by the
// client cache; only the validation traffic reaches the server.
func (e *EECS) metadataBurst(h *eecsHost, t float64) {
	cl := h.cl
	n := 15 + e.rng.Intn(40)
	dirs := []nfs.FH{h.srcDir, h.homeFH, h.docDir}
	for i := 0; i < n; i++ {
		var dir nfs.FH
		var name string
		switch e.rng.Intn(3) {
		case 0:
			dir, name = h.srcDir, h.srcFiles[e.rng.Intn(len(h.srcFiles))]
		case 1:
			dir, name = h.docDir, h.docNames[e.rng.Intn(len(h.docNames))]
		default:
			dir, name = h.homeFH, []string{"experiment.log", "results.idx", "trace0.dat"}[e.rng.Intn(3)]
		}
		fh, t2 := cl.LookupCached(t, dir, name)
		if fh != nil {
			switch e.rng.Intn(3) {
			case 0:
				_, t2 = cl.Getattr(t2, fh)
			case 1:
				t2 = cl.Access(t2, fh)
			default:
				// Re-lookup through the directory (negative-cache
				// misses and path revalidation).
				_, _, t2 = cl.Lookup(t2, dir, name)
			}
		}
		// Occasional directory scans.
		if e.rng.Float64() < 0.03 {
			_, t2 = cl.Readdir(t2, dirs[e.rng.Intn(len(dirs))])
		}
		t = t2 + 0.001 + e.rng.Float64()*0.3
	}
}

// browserSession writes web-page cache files into the home directory —
// the paper's signature EECS write load — and prunes old ones.
func (e *EECS) browserSession(h *eecsHost, t float64) {
	cl := h.cl
	pages := 5 + e.rng.Intn(35)
	for i := 0; i < pages; i++ {
		h.cacheN++
		name := fmt.Sprintf("cache%08X.gz", h.cacheN*2654435761)
		fh, t2 := cl.Create(t, h.cacheDir, name, true)
		if fh == nil {
			t = t2
			continue
		}
		size := uint64(LogNormal(e.rng, 16*1024, 1.2))
		if size > 512*1024 {
			size = 512 * 1024
		}
		t2 = cl.WriteRange(t2, fh, 0, size)
		h.cacheLRU = append(h.cacheLRU, name)
		// Revisit: read a previously cached page.
		if len(h.cacheLRU) > 4 && e.rng.Float64() < 0.3 {
			old := h.cacheLRU[e.rng.Intn(len(h.cacheLRU))]
			if ofh, t3 := cl.LookupCached(t2, h.cacheDir, old); ofh != nil {
				if ino, err := e.srv.FS.GetFH(ofh); err == nil {
					_, t3 = cl.ReadFile(t3, ofh, ino.Size)
				}
				t2 = t3
			}
		}
		// LRU pruning keeps the cache bounded: deletion deaths.
		for len(h.cacheLRU) > 150 {
			victim := h.cacheLRU[0]
			h.cacheLRU = h.cacheLRU[1:]
			_, t2 = cl.Remove(t2, h.cacheDir, victim)
		}
		gap := 0.5 + e.rng.ExpFloat64()*8
		if gap > 25 {
			gap = 25
		}
		t = t2 + gap
	}
}

// build compiles the project: read every source file, write .o files,
// link a binary, and clean up — creating and deleting many short-lived
// files (deletion deaths; §5.2.2).
func (e *EECS) build(h *eecsHost, t float64) {
	cl := h.cl
	var objs []string
	for _, src := range h.srcFiles {
		fh, t2 := cl.LookupCached(t, h.srcDir, src)
		if fh != nil {
			if ino, err := e.srv.FS.GetFH(fh); err == nil {
				_, t2 = cl.ReadFile(t2, fh, ino.Size)
			}
		}
		obj := src[:len(src)-2] + ".o"
		ofh, t3 := cl.Create(t2, h.srcDir, obj, true)
		if ofh != nil {
			osize := uint64(4*1024 + e.rng.Int63n(40*1024))
			t3 = cl.WriteRange(t3, ofh, 0, osize)
			objs = append(objs, obj)
		}
		gap := 0.2 + e.rng.ExpFloat64()*2
		if gap > 6 {
			gap = 6
		}
		t = t3 + gap
	}
	// Link.
	bin, t2 := cl.Create(t, h.srcDir, "a.out", true)
	if bin != nil {
		t2 = cl.WriteRange(t2, bin, 0, uint64(512*1024+e.rng.Int63n(1<<20)))
	}
	// Objects die minutes later (make clean or the next build).
	cleanup := t2 + 120 + e.rng.Float64()*1800
	if cleanup < e.sim.End {
		names := objs
		e.sim.At(cleanup, func(now float64) {
			for _, o := range names {
				_, now = cl.Remove(now, h.srcDir, o)
			}
		})
	}
}

// editSession opens a document, reads it, and saves several times.
// Editors rewrite via truncate-then-write (truncate deaths) and manage
// backup files (rename churn, "~" names).
func (e *EECS) editSession(h *eecsHost, t float64) {
	cl := h.cl
	name := h.docNames[e.rng.Intn(len(h.docNames))]
	fh, t2 := cl.LookupCached(t, h.docDir, name)
	if fh == nil {
		return
	}
	if ino, err := e.srv.FS.GetFH(fh); err == nil {
		_, t2 = cl.ReadFile(t2, fh, ino.Size)
	}
	saves := 1 + e.rng.Intn(4)
	e.scheduleEditorSave(h, name, fh, t2, 0, saves)
}

// scheduleEditorSave chains the session's saves as simulator events so
// the minutes of editing between them never advance the emission clock
// inline (which would outrun other actors' records).
func (e *EECS) scheduleEditorSave(h *eecsHost, name string, fh nfs.FH, t float64, s, saves int) {
	if s >= saves {
		return
	}
	next := t + 60 + e.rng.ExpFloat64()*240
	if next >= e.sim.End {
		return
	}
	e.sim.At(next, func(now float64) {
		cl := h.cl
		ino, err := e.srv.FS.GetFH(fh)
		if err != nil {
			return
		}
		t2 := now
		if s == 0 {
			// Backup then rewrite under the original name.
			t2 = cl.Rename(t2, h.docDir, name, h.docDir, name+"~")
			nfh, t3 := cl.Create(t2, h.docDir, name, true)
			if nfh == nil {
				return
			}
			fh, t2 = nfh, t3
			t2 = cl.WriteRange(t2, fh, 0, ino.Size)
		} else if e.rng.Float64() < 0.3 {
			// O_TRUNC-style save: the old blocks die by truncation.
			t2 = cl.SetattrTruncate(t2, fh, 0)
			t2 = cl.WriteRange(t2, fh, 0, ino.Size+uint64(e.rng.Int63n(4096)))
		} else {
			// In-place rewrite.
			t2 = cl.WriteRange(t2, fh, 0, ino.Size+uint64(e.rng.Int63n(4096)))
		}
		e.scheduleEditorSave(h, name, fh, t2, s+1, saves)
	})
}

// appletChurn creates and immediately deletes a window-manager
// Applet_*_Extern file (§5.2.2: ~10,000/day on EECS).
func (e *EECS) appletChurn(h *eecsHost, t float64) {
	cl := h.cl
	h.appletN++
	name := fmt.Sprintf("Applet_%d_Extern", h.appletN)
	fh, t2 := cl.Create(t, h.homeFH, name, true)
	if fh != nil {
		t2 = cl.WriteRange(t2, fh, 0, uint64(128+e.rng.Int63n(2048)))
		cl.Remove(t2+0.05+e.rng.ExpFloat64()*0.3, h.homeFH, name)
	}
}

// scheduleLogWrite keeps the unbuffered log/index writers running: the
// log appends within its tail block (so the block is overwritten again
// within seconds — EECS's sub-second block deaths), and the index is
// written at scattered offsets, sometimes past EOF (extension births).
func (e *EECS) scheduleLogWrite(h *eecsHost, t float64) {
	if t >= e.sim.End {
		return
	}
	e.sim.At(t, func(now float64) {
		cl := h.cl
		if e.rng.Float64() < 0.85 {
			// Unbuffered log flush: the application appends a few
			// records, fsyncing after each. The wire sees byte-exact
			// sequential appends, and the shared tail block is
			// re-written two or three times within a fraction of a
			// second — the sub-second block deaths of Figure 3.
			tt := now
			flushes := 3 + e.rng.Intn(3)
			for i := 0; i < flushes; i++ {
				n := uint64(120 + e.rng.Int63n(2048))
				tt = cl.WriteRange(tt, h.logFH, h.logOff, n)
				h.logOff += n
				tt += 0.03 + e.rng.Float64()*0.2
			}
		} else {
			// Index update: write one block at a scattered offset,
			// occasionally far past EOF (extension births, §5.2.2).
			var off uint64
			if e.rng.Float64() < 0.25 {
				off = h.idxSize + uint64(e.rng.Int63n(40))*8192
				h.idxSize = off + 8192
			} else {
				off = uint64(e.rng.Int63n(int64(h.idxSize/8192+1))) * 8192
			}
			cl.WriteRange(now, h.idxFH, off, 8192)
			if off+8192 > h.idxSize {
				h.idxSize = off + 8192
			}
		}
		e.scheduleLogWrite(h, now+e.rng.ExpFloat64()*e.cfg.LogWriteInterval)
	})
}

// cronJob is an off-hours batch analysis: stream through a slice of the
// big data file (long sequential reads), then write a results file and
// read random index blocks (the random-access component of Figure 2).
func (e *EECS) cronJob(h *eecsHost, t float64) {
	cl := h.cl
	// Long sequential reads over several data files.
	t2 := t
	files := 2 + e.rng.Intn(3)
	for j := 0; j < files; j++ {
		k := e.rng.Intn(len(h.dataFHs))
		frac := 0.2 + e.rng.Float64()*0.6
		n := uint64(float64(h.dataSizes[k]) * frac)
		start := uint64(0)
		if frac < 0.99 {
			start = uint64(e.rng.Int63n(int64(h.dataSizes[k]-n))) &^ 8191
		}
		_, t2 = cl.ReadRange(t2, h.dataFHs[k], start, n)
		t2 += 1 + min(e.rng.ExpFloat64()*10, 25)
	}
	// Random index probes.
	probes := 10 + e.rng.Intn(40)
	for i := 0; i < probes; i++ {
		off := uint64(e.rng.Int63n(int64(h.idxSize/8192+1))) * 8192
		_, t2 = cl.ReadRange(t2+0.01, h.idxFH, off, 8192)
	}
	// Results file.
	h.cacheN++
	name := fmt.Sprintf("run%05d.out", h.cacheN)
	fh, t3 := cl.Create(t2, h.homeFH, name, true)
	if fh != nil {
		cl.WriteRange(t3, fh, 0, uint64(512<<10+e.rng.Int63n(3<<20)))
	}
}

// scheduleLogRotation periodically rotates the growing log: the old
// file is renamed aside, removed, and a fresh one created. The bulk
// deletion is where much of EECS's "blocks die by file deletion" mass
// comes from (Table 4).
func (e *EECS) scheduleLogRotation(h *eecsHost, t float64) {
	if t >= e.sim.End {
		return
	}
	e.sim.At(t, func(now float64) {
		cl := h.cl
		t2 := cl.Rename(now, h.homeFH, "experiment.log", h.homeFH, "experiment.log.0")
		if fh, t3 := cl.Create(t2, h.homeFH, "experiment.log", true); fh != nil {
			h.logFH = fh
			h.logOff = 0
			t2 = t3
		}
		// The previous rotation's file dies now.
		_, t2 = cl.Remove(t2, h.homeFH, "experiment.log.0")
		e.scheduleLogRotation(h, now+(4+e.rng.Float64()*4)*Hour)
	})
}

// scanJob sweeps a handful of files with cold reads (grep, find, data
// staging): each file is a separate sequential read run, the bulk of
// EECS's read-run population.
func (e *EECS) scanJob(h *eecsHost, t float64) {
	cl := h.cl
	// Sweep distinct files (a grep never reads the same file twice).
	type target struct {
		dir  nfs.FH
		name string
	}
	var pool []target
	for _, n := range h.srcFiles {
		pool = append(pool, target{h.srcDir, n})
	}
	for _, n := range h.docNames {
		pool = append(pool, target{h.docDir, n})
	}
	e.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 3 + e.rng.Intn(10)
	if n > len(pool) {
		n = len(pool)
	}
	for i := 0; i < n; i++ {
		dir, name := pool[i].dir, pool[i].name
		fh, t2 := cl.LookupCached(t, dir, name)
		if fh != nil {
			if ino, err := e.srv.FS.GetFH(fh); err == nil && ino.Size > 0 {
				// grep/head often stop early: a sequential partial
				// read; otherwise the whole file (an entire run).
				n := ino.Size
				if e.rng.Float64() < 0.6 {
					n = uint64(float64(ino.Size) * (0.2 + e.rng.Float64()*0.7))
					if n == 0 {
						n = 1
					}
				}
				_, t2 = cl.ReadRange(t2, fh, 0, n)
			}
		}
		gap := 0.2 + e.rng.ExpFloat64()*3
		if gap > 10 {
			gap = 10
		}
		t = t2 + gap
	}
}

// dataJob is a daytime analysis pass: a long partial sequential read of
// the research data file plus scattered index probes.
func (e *EECS) dataJob(h *eecsHost, t float64) {
	cl := h.cl
	t2 := t
	files := 1 + e.rng.Intn(3)
	for j := 0; j < files; j++ {
		k := e.rng.Intn(len(h.dataFHs))
		frac := 0.15 + e.rng.Float64()*0.5
		n := uint64(float64(h.dataSizes[k])*frac) &^ 8191
		if n == 0 {
			n = 8192
		}
		start := uint64(e.rng.Int63n(int64(h.dataSizes[k]-n+1))) &^ 8191
		_, t2 = cl.ReadRange(t2, h.dataFHs[k], start, n)
		t2 += 1 + min(e.rng.ExpFloat64()*5, 15)
	}
	for i := 0; i < 5+e.rng.Intn(15); i++ {
		off := uint64(e.rng.Int63n(int64(h.idxSize/8192+1))) * 8192
		_, t2 = cl.ReadRange(t2+0.01, h.idxFH, off, 8192)
	}
	// Stage the processed output.
	h.cacheN++
	name := fmt.Sprintf("stage%05d.out", h.cacheN)
	if fh, t3 := cl.Create(t2, h.homeFH, name, true); fh != nil {
		cl.WriteRange(t3, fh, 0, uint64(256<<10+e.rng.Int63n(1<<20)))
	}
}
