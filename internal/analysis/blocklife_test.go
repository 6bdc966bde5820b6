package analysis

import (
	"testing"

	"repro/internal/core"
)

// wr builds a successful write op with wcc pre-size.
func wr(t float64, fh string, off uint64, count uint32, preSize, postSize uint64) *core.Op {
	return &core.Op{T: t, Replied: true, Proc: core.MustProc("write"), FH: core.InternFH(fh),
		Offset: off, Count: count, RCount: count,
		PreSize: preSize, HasPre: true, Size: postSize}
}

func TestBlockLifeBirthsByWrite(t *testing.T) {
	ops := []*core.Op{
		wr(1, "f", 0, 16384, 0, 16384), // two fresh blocks
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.Births != 2 || res.BirthCause[BirthWrite] != 2 {
		t.Fatalf("births: %+v", res)
	}
	if res.Deaths != 0 || res.EndSurplus != 2 {
		t.Fatalf("deaths/surplus: %+v", res)
	}
}

func TestBlockLifeOverwriteDeath(t *testing.T) {
	ops := []*core.Op{
		wr(1, "f", 0, 8192, 0, 8192),
		wr(31, "f", 0, 8192, 8192, 8192), // overwrites block 0
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.Births != 2 {
		t.Fatalf("births %d", res.Births)
	}
	if res.Deaths != 1 || res.DeathCause[DeathOverwrite] != 1 {
		t.Fatalf("deaths: %+v", res)
	}
	if got := res.Lifetimes.Median(); got != 30 {
		t.Fatalf("lifetime %v, want 30", got)
	}
	if res.EndSurplus != 1 {
		t.Fatalf("surplus %d", res.EndSurplus)
	}
}

func TestBlockLifeExtensionBirths(t *testing.T) {
	// Write at 64k into an 8k file: blocks 1..7 born by extension,
	// block 8 born by write.
	ops := []*core.Op{
		wr(1, "f", 0, 8192, 0, 8192),
		wr(2, "f", 65536, 8192, 8192, 73728),
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.BirthCause[BirthExtension] != 7 {
		t.Fatalf("extension births %d, want 7", res.BirthCause[BirthExtension])
	}
	if res.BirthCause[BirthWrite] != 2 {
		t.Fatalf("write births %d, want 2", res.BirthCause[BirthWrite])
	}
}

func TestBlockLifeTruncateDeath(t *testing.T) {
	ops := []*core.Op{
		wr(1, "f", 0, 32768, 0, 32768), // 4 blocks
		{T: 10, Replied: true, Proc: core.MustProc("setattr"), FH: core.InternFH("f"),
			SetSize: 8192, HasSet: true, PreSize: 32768, HasPre: true, Size: 8192},
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.DeathCause[DeathTruncate] != 3 {
		t.Fatalf("truncate deaths %d, want 3", res.DeathCause[DeathTruncate])
	}
}

func TestBlockLifeDeleteDeath(t *testing.T) {
	ops := []*core.Op{
		{T: 0.5, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"), Name: "tmp", NewFH: core.InternFH("f"), Size: 0},
		wr(1, "f", 0, 24576, 0, 24576),
		{T: 5, Replied: true, Proc: core.MustProc("remove"), FH: core.InternFH("dir"), Name: "tmp"},
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.DeathCause[DeathDelete] != 3 {
		t.Fatalf("delete deaths %d, want 3 (%+v)", res.DeathCause[DeathDelete], res)
	}
	if res.EndSurplus != 0 {
		t.Fatalf("surplus %d", res.EndSurplus)
	}
}

func TestBlockLifeRenameTracksName(t *testing.T) {
	ops := []*core.Op{
		{T: 0.5, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"), Name: "a", NewFH: core.InternFH("f"), Size: 0},
		wr(1, "f", 0, 8192, 0, 8192),
		{T: 2, Replied: true, Proc: core.MustProc("rename"), FH: core.InternFH("dir"), Name: "a", FH2: core.InternFH("dir2"), Name2: "b"},
		{T: 3, Replied: true, Proc: core.MustProc("remove"), FH: core.InternFH("dir2"), Name: "b"},
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.DeathCause[DeathDelete] != 1 {
		t.Fatalf("rename lost the file: %+v", res)
	}
}

func TestBlockLifePhase2DeathsOnly(t *testing.T) {
	ops := []*core.Op{
		wr(80, "f", 0, 8192, 0, 8192),         // phase 1 birth
		wr(150, "f", 8192, 8192, 8192, 16384), // phase 2: birth NOT counted
		wr(160, "f", 0, 8192, 16384, 16384),   // phase 2 death (life 80 < margin)
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.Births != 1 {
		t.Fatalf("births %d, want 1 (phase 2 births ignored)", res.Births)
	}
	if res.Deaths != 1 {
		t.Fatalf("deaths %d", res.Deaths)
	}
}

func TestBlockLifeMarginDiscardsLongLives(t *testing.T) {
	ops := []*core.Op{
		wr(1, "f", 0, 8192, 0, 8192),
		wr(190, "f", 0, 8192, 8192, 8192), // lives 189s; margin is 100
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.Deaths != 0 {
		t.Fatalf("overlong death counted: %+v", res)
	}
}

func TestBlockLifeWindowOffsets(t *testing.T) {
	// Ops before the window only feed name/size tracking.
	ops := []*core.Op{
		{T: 1, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"), Name: "x", NewFH: core.InternFH("f"), Size: 0},
		wr(2, "f", 0, 8192, 0, 8192), // before window: no birth
		wr(20, "f", 0, 8192, 8192, 8192),
	}
	res := addAll(NewBlockLifeStream(10, 50, 50), ops).Result()
	if res.Births != 1 {
		t.Fatalf("births %d, want 1", res.Births)
	}
	// The overwrite death at t=20 kills a block born before the
	// window, which is not tracked — no death.
	if res.Deaths != 0 {
		t.Fatalf("deaths %d", res.Deaths)
	}
}

func TestBlockLifeFailedOpsIgnored(t *testing.T) {
	ops := []*core.Op{
		{T: 1, Replied: true, Status: 13, Proc: core.MustProc("write"), FH: core.InternFH("f"),
			Offset: 0, Count: 8192, RCount: 0},
		{T: 2, Replied: false, Proc: core.MustProc("write"), FH: core.InternFH("f"), Offset: 0, Count: 8192},
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.Births != 0 {
		t.Fatalf("failed/unreplied writes created births: %+v", res)
	}
}

func TestBlockLifePercentHelpers(t *testing.T) {
	ops := []*core.Op{
		wr(1, "f", 0, 8192, 0, 8192),
		wr(2, "f", 0, 8192, 8192, 8192),
	}
	res := addAll(NewBlockLifeStream(0, 100, 100), ops).Result()
	if res.BirthPct(BirthWrite) != 100 {
		t.Fatalf("birth pct %v", res.BirthPct(BirthWrite))
	}
	if res.DeathPct(DeathOverwrite) != 100 {
		t.Fatalf("death pct %v", res.DeathPct(DeathOverwrite))
	}
	if res.EndSurplusPct() != 50 {
		t.Fatalf("surplus pct %v", res.EndSurplusPct())
	}
}
