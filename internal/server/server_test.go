package server

import (
	"math/rand"
	"testing"

	"repro/internal/nfs"
	"repro/internal/vfs"
)

func newServer() *Server {
	fs := vfs.New()
	now := 0.0
	fs.Clock = func() float64 { now += 0.001; return now }
	return New(fs)
}

func TestLookupCreateReadWrite(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()

	// Create a file.
	cres := s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{
		Where: nfs.DirOpArgs3{Dir: root, Name: "inbox"}}).(*nfs.CreateRes3)
	if cres.Status != nfs.OK || cres.FH == nil {
		t.Fatalf("create: %+v", cres)
	}

	// Write 10000 bytes.
	wres := s.HandleV3(nfs.V3Write, &nfs.WriteArgs3{
		FH: cres.FH, Offset: 0, Count: 10000, Stable: nfs.Unstable}).(*nfs.WriteRes3)
	if wres.Status != nfs.OK || wres.Count != 10000 {
		t.Fatalf("write: %+v", wres)
	}
	if wres.Wcc == nil || wres.Wcc.Before == nil || wres.Wcc.Before.Size != 0 {
		t.Fatalf("wcc before missing: %+v", wres.Wcc)
	}
	if wres.Wcc.After.Size != 10000 {
		t.Fatalf("wcc after size %d", wres.Wcc.After.Size)
	}

	// Lookup resolves the file with attributes.
	lres := s.HandleV3(nfs.V3Lookup, &nfs.LookupArgs3{Dir: root, Name: "inbox"}).(*nfs.LookupRes3)
	if lres.Status != nfs.OK || !lres.FH.Equal(cres.FH) || lres.Attr.Size != 10000 {
		t.Fatalf("lookup: %+v", lres)
	}

	// Read the first 8k.
	rres := s.HandleV3(nfs.V3Read, &nfs.ReadArgs3{FH: cres.FH, Offset: 0, Count: 8192}).(*nfs.ReadRes3)
	if rres.Status != nfs.OK || rres.Count != 8192 || rres.EOF {
		t.Fatalf("read: %+v", rres)
	}
	if len(rres.Data) != 8192 {
		t.Fatalf("data %d", len(rres.Data))
	}
	// Read the tail.
	rres = s.HandleV3(nfs.V3Read, &nfs.ReadArgs3{FH: cres.FH, Offset: 8192, Count: 8192}).(*nfs.ReadRes3)
	if rres.Status != nfs.OK || rres.Count != 1808 || !rres.EOF {
		t.Fatalf("tail read: %+v", rres)
	}
}

func TestCreateUncheckedTruncatesExisting(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "f"}})
	s.HandleV3(nfs.V3Write, &nfs.WriteArgs3{FH: nfs.MakeFH(3), Offset: 0, Count: 5000})
	size := uint64(0)
	cres := s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{
		Where: nfs.DirOpArgs3{Dir: root, Name: "f"},
		Attr:  nfs.Sattr{Size: &size}}).(*nfs.CreateRes3)
	if cres.Status != nfs.OK {
		t.Fatalf("recreate: %+v", cres)
	}
	if cres.Attr.Size != 0 {
		t.Fatalf("size after unchecked create = %d", cres.Attr.Size)
	}
}

// TestReadCapped: a READ larger than a reply record can carry returns
// MaxReadCount bytes, on both versions, instead of building a reply no
// connection can send.
func TestReadCapped(t *testing.T) {
	s := newServer()
	cres := s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{
		Where: nfs.DirOpArgs3{Dir: s.FS.RootFH(), Name: "huge"}}).(*nfs.CreateRes3)
	if cres.Status != nfs.OK {
		t.Fatalf("create: %+v", cres)
	}
	id, _ := cres.FH.FileID()
	if _, err := s.FS.Truncate(id, 1<<40); err != nil {
		t.Fatal(err)
	}
	r3 := s.HandleV3(nfs.V3Read, &nfs.ReadArgs3{FH: cres.FH, Count: MaxReadCount + 1<<20}).(*nfs.ReadRes3)
	if r3.Status != nfs.OK || r3.Count != MaxReadCount || len(r3.Data) != MaxReadCount || r3.EOF {
		t.Fatalf("v3 read: status %d, count %d, %d data bytes, eof %v", r3.Status, r3.Count, len(r3.Data), r3.EOF)
	}
	r2 := s.HandleV2(nfs.V2Read, &nfs.ReadArgs2{FH: cres.FH, Count: MaxReadCount + 1<<20}).(*nfs.ReadRes2)
	if r2.Status != nfs.OK || len(r2.Data) != MaxReadCount {
		t.Fatalf("v2 read: status %d, %d data bytes", r2.Status, len(r2.Data))
	}
}

func TestLookupMiss(t *testing.T) {
	s := newServer()
	res := s.HandleV3(nfs.V3Lookup, &nfs.LookupArgs3{
		Dir: s.FS.RootFH(), Name: "ghost"}).(*nfs.LookupRes3)
	if res.Status != nfs.ErrNoEnt {
		t.Fatalf("status %d", res.Status)
	}
	if res.DirAttr == nil {
		t.Fatal("dir attrs missing on miss")
	}
}

func TestStaleHandle(t *testing.T) {
	s := newServer()
	res := s.HandleV3(nfs.V3Getattr, &nfs.GetattrArgs3{FH: nfs.MakeFH(424242)}).(*nfs.GetattrRes3)
	if res.Status != nfs.ErrStale {
		t.Fatalf("status %d", res.Status)
	}
}

func TestSetattrTruncate(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	cres := s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "f"}}).(*nfs.CreateRes3)
	s.HandleV3(nfs.V3Write, &nfs.WriteArgs3{FH: cres.FH, Offset: 0, Count: 9000})
	size := uint64(100)
	res := s.HandleV3(nfs.V3Setattr, &nfs.SetattrArgs3{FH: cres.FH,
		Attr: nfs.Sattr{Size: &size}}).(*nfs.SetattrRes3)
	if res.Status != nfs.OK {
		t.Fatalf("setattr: %+v", res)
	}
	if res.Wcc.Before.Size != 9000 || res.Wcc.After.Size != 100 {
		t.Fatalf("wcc %+v → %+v", res.Wcc.Before, res.Wcc.After)
	}
}

func TestRemoveRmdirRename(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	s.HandleV3(nfs.V3Mkdir, &nfs.MkdirArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "d"}})
	dres := s.HandleV3(nfs.V3Lookup, &nfs.LookupArgs3{Dir: root, Name: "d"}).(*nfs.LookupRes3)
	s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: dres.FH, Name: "x"}})

	rn := s.HandleV3(nfs.V3Rename, &nfs.RenameArgs3{
		From: nfs.DirOpArgs3{Dir: dres.FH, Name: "x"},
		To:   nfs.DirOpArgs3{Dir: root, Name: "y"}}).(*nfs.RenameRes3)
	if rn.Status != nfs.OK {
		t.Fatalf("rename: %+v", rn)
	}
	rm := s.HandleV3(nfs.V3Remove, &nfs.DirOpArgs3{Dir: root, Name: "y"}).(*nfs.RemoveRes3)
	if rm.Status != nfs.OK {
		t.Fatalf("remove: %+v", rm)
	}
	rd := s.HandleV3(nfs.V3Rmdir, &nfs.DirOpArgs3{Dir: root, Name: "d"}).(*nfs.RemoveRes3)
	if rd.Status != nfs.OK {
		t.Fatalf("rmdir: %+v", rd)
	}
}

func TestReaddirPaging(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
		s.HandleV3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: n}})
	}
	var names []string
	cookie := uint64(0)
	for {
		res := s.HandleV3(nfs.V3Readdir, &nfs.ReaddirArgs3{Dir: root, Cookie: cookie, MaxCount: 512}).(*nfs.ReaddirRes3)
		if res.Status != nfs.OK {
			t.Fatalf("readdir: %+v", res)
		}
		for _, e := range res.Entries {
			names = append(names, e.Name)
			cookie = e.Cookie
		}
		if res.EOF {
			break
		}
	}
	if len(names) != 12 {
		t.Fatalf("names = %v", names)
	}
}

func TestAccessAndFsstat(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	acc := s.HandleV3(nfs.V3Access, &nfs.AccessArgs3{FH: root, Access: 0x1F}).(*nfs.AccessRes3)
	if acc.Status != nfs.OK || acc.Access != 0x1F {
		t.Fatalf("access: %+v", acc)
	}
	fst := s.HandleV3(nfs.V3Fsstat, &nfs.GetattrArgs3{FH: root}).(*nfs.FsstatRes3)
	if fst.Status != nfs.OK || fst.Tbytes != 53<<30 {
		t.Fatalf("fsstat: %+v", fst)
	}
}

func TestV2Delegation(t *testing.T) {
	s := newServer()
	root := s.FS.RootFH()
	cres := s.HandleV2(nfs.V2Create, &nfs.CreateArgs2{Where: nfs.DirOpArgs3{Dir: root, Name: "old.c"}}).(*nfs.DirOpRes2)
	if cres.Status != nfs.OK {
		t.Fatalf("v2 create: %+v", cres)
	}
	wres := s.HandleV2(nfs.V2Write, &nfs.WriteArgs2{FH: cres.FH, Offset: 0, Data: make([]byte, 4096)}).(*nfs.AttrStatRes2)
	if wres.Status != nfs.OK || wres.Attr.Size != 4096 {
		t.Fatalf("v2 write: %+v", wres)
	}
	rres := s.HandleV2(nfs.V2Read, &nfs.ReadArgs2{FH: cres.FH, Offset: 0, Count: 4096}).(*nfs.ReadRes2)
	if rres.Status != nfs.OK || len(rres.Data) != 4096 {
		t.Fatalf("v2 read: %+v", rres)
	}
	gres := s.HandleV2(nfs.V2Getattr, &nfs.GetattrArgs3{FH: cres.FH}).(*nfs.AttrStatRes2)
	if gres.Status != nfs.OK || gres.Attr.Size != 4096 {
		t.Fatalf("v2 getattr: %+v", gres)
	}
	st := s.HandleV2(nfs.V2Statfs, &nfs.GetattrArgs3{FH: root}).(*nfs.StatfsRes2)
	if st.Status != nfs.OK || st.Bsize != vfs.BlockSize {
		t.Fatalf("v2 statfs: %+v", st)
	}
	rm := s.HandleV2(nfs.V2Remove, &nfs.DirOpArgs3{Dir: root, Name: "old.c"}).(*nfs.StatusRes2)
	if rm.Status != nfs.OK {
		t.Fatalf("v2 remove: %+v", rm)
	}
}

func TestOpsCounted(t *testing.T) {
	s := newServer()
	s.HandleV3(nfs.V3Getattr, &nfs.GetattrArgs3{FH: s.FS.RootFH()})
	s.HandleV3(nfs.V3Getattr, &nfs.GetattrArgs3{FH: s.FS.RootFH()})
	s.HandleV2(nfs.V2Getattr, &nfs.GetattrArgs3{FH: s.FS.RootFH()})
	if s.OpCount("getattr") != 3 {
		t.Fatalf("ops = %v", s.OpCounts())
	}
	if counts := s.OpCounts(); counts["getattr"] != 3 {
		t.Fatalf("ops map = %v", counts)
	}
}

func TestFiller(t *testing.T) {
	if Filler(0) != nil {
		t.Fatal("Filler(0) not nil")
	}
	b := Filler(100000)
	if len(b) != 100000 {
		t.Fatalf("len = %d", len(b))
	}
	// Shared storage: same backing array on repeat calls.
	b2 := Filler(10)
	if &b[0] != &b2[0] {
		t.Fatal("filler reallocated for smaller request")
	}
}

func TestDiskModel(t *testing.T) {
	d := NewDisk()
	t1 := d.Read(100, 1) // cold: seek + transfer
	t2 := d.Read(101, 1) // sequential: transfer only
	if t1 <= t2 {
		t.Fatalf("seek not charged: %v vs %v", t1, t2)
	}
	if d.Seeks() != 1 {
		t.Fatalf("seeks = %d", d.Seeks())
	}
	t3 := d.Read(500, 1)
	if t3 <= t2 {
		t.Fatal("random jump not charged")
	}
	if d.BusyTime() != t1+t2+t3 {
		t.Fatalf("busy = %v", d.BusyTime())
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := NewBlockCache(2)
	c.Insert(1, 0)
	c.Insert(1, 1)
	c.Insert(1, 2) // evicts (1,0)
	if c.Contains(1, 0) {
		t.Fatal("evicted block still present")
	}
	if !c.Contains(1, 1) || !c.Contains(1, 2) {
		t.Fatal("recent blocks missing")
	}
	if c.HitRate() <= 0 {
		t.Fatal("hit rate not tracked")
	}
}

func TestStrictSequentialPolicy(t *testing.T) {
	p := NewStrictSequential(8)
	if got := p.Advise(1, 0, 1); got != 0 {
		t.Fatalf("first access prefetched %d", got)
	}
	if got := p.Advise(1, 1, 1); got != 8 {
		t.Fatalf("sequential access prefetched %d", got)
	}
	// A reordered request kills the run.
	if got := p.Advise(1, 5, 1); got != 0 {
		t.Fatalf("reordered access prefetched %d", got)
	}
}

func TestMetricPolicyToleratesReordering(t *testing.T) {
	p := NewMetricReadAhead()
	// Mostly sequential with occasional small jumps: metric stays high.
	blocks := []int64{0, 1, 2, 4, 3, 5, 6, 7, 9, 8, 10, 11}
	prefetched := 0
	for _, b := range blocks {
		if p.Advise(1, b, 1) > 0 {
			prefetched++
		}
	}
	if prefetched < len(blocks)-2 {
		t.Fatalf("metric policy prefetched only %d/%d", prefetched, len(blocks))
	}
	// A genuinely random stream drives the metric down.
	q := NewMetricReadAhead()
	rng := rand.New(rand.NewSource(1))
	denies := 0
	for i := 0; i < 200; i++ {
		if q.Advise(2, rng.Int63n(1_000_000_000), 1) == 0 {
			denies++
		}
	}
	if denies < 150 {
		t.Fatalf("metric policy allowed prefetch on random stream (%d denies)", denies)
	}
}

// TestReadPathExperimentShape verifies the §6.4 result: under ~10%
// reordering, the metric policy beats strict read-ahead by >5% on
// large sequential transfers.
func TestReadPathExperimentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reqs []ReadRequest
	for file := uint64(1); file <= 20; file++ {
		start := len(reqs)
		for b := int64(0); b < 512; b++ { // 4 MB per file
			reqs = append(reqs, ReadRequest{File: file, Block: b, NBlocks: 1})
		}
		// Swap ~10% of adjacent pairs within this file's range.
		for i := start; i < len(reqs)-1; i++ {
			if rng.Float64() < 0.10 {
				reqs[i], reqs[i+1] = reqs[i+1], reqs[i]
			}
		}
	}
	strict := RunReadPath(reqs, NewStrictSequential(8), 4096)
	metric := RunReadPath(reqs, NewMetricReadAhead(), 4096)
	none := RunReadPath(reqs, NoReadAhead{}, 4096)

	if !(metric.Throughput > strict.Throughput) {
		t.Fatalf("metric (%.1f MB/s) not faster than strict (%.1f MB/s)",
			metric.Throughput/1e6, strict.Throughput/1e6)
	}
	gain := metric.Throughput/strict.Throughput - 1
	if gain < 0.05 {
		t.Fatalf("gain %.1f%% below the paper's >5%%", gain*100)
	}
	if !(strict.Throughput > none.Throughput) {
		t.Fatalf("strict (%.1f) not faster than none (%.1f)",
			strict.Throughput/1e6, none.Throughput/1e6)
	}
}

// TestReadPathNoReorderingParity: without reordering, strict and metric
// should perform nearly identically.
func TestReadPathNoReorderingParity(t *testing.T) {
	var reqs []ReadRequest
	for file := uint64(1); file <= 10; file++ {
		for b := int64(0); b < 256; b++ {
			reqs = append(reqs, ReadRequest{File: file, Block: b, NBlocks: 1})
		}
	}
	strict := RunReadPath(reqs, NewStrictSequential(8), 4096)
	metric := RunReadPath(reqs, NewMetricReadAhead(), 4096)
	ratio := metric.Throughput / strict.Throughput
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("in-order parity broken: ratio %.3f", ratio)
	}
}
