package anon

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func newAnon() *Anonymizer { return New(DefaultConfig(42)) }

func TestConsistentMapping(t *testing.T) {
	a := newAnon()
	if a.UID(501) != a.UID(501) {
		t.Error("uid mapping inconsistent")
	}
	if a.GID(100) != a.GID(100) {
		t.Error("gid mapping inconsistent")
	}
	if a.IP(0xC0A80101) != a.IP(0xC0A80101) {
		t.Error("ip mapping inconsistent")
	}
	if a.Name("thesis.tex") != a.Name("thesis.tex") {
		t.Error("name mapping inconsistent")
	}
}

func TestDistinctInputsDistinctOutputs(t *testing.T) {
	a := newAnon()
	seen := map[uint32]bool{}
	for uid := uint32(100); uid < 600; uid++ {
		v := a.UID(uid)
		if seen[v] {
			t.Fatalf("uid collision at %d", uid)
		}
		seen[v] = true
	}
	names := map[string]bool{}
	for _, n := range []string{"alpha", "beta", "gamma", "delta"} {
		v := a.Name(n)
		if names[v] {
			t.Fatalf("name collision for %q", n)
		}
		names[v] = true
	}
}

func TestNotIdentityForPrivateValues(t *testing.T) {
	a := newAnon()
	if a.UID(501) == 501 {
		t.Error("uid passed through unexpectedly")
	}
	if got := a.Name("smithfamily"); got == "smithfamily" {
		t.Error("private name passed through")
	}
}

func TestPassThroughs(t *testing.T) {
	a := newAnon()
	if a.UID(0) != 0 || a.GID(0) != 0 {
		t.Error("root not passed through")
	}
	for _, n := range []string{"CVS", ".inbox", ".pinerc", "lock", "mbox"} {
		if a.Name(n) != n {
			t.Errorf("%q not passed through: %q", n, a.Name(n))
		}
	}
}

func TestSuffixSharing(t *testing.T) {
	a := newAnon()
	n1 := a.Name("main.c")
	n2 := a.Name("util.c")
	s1 := n1[strings.LastIndexByte(n1, '.')+1:]
	s2 := n2[strings.LastIndexByte(n2, '.')+1:]
	if s1 != s2 {
		t.Fatalf("suffix not shared: %q vs %q", n1, n2)
	}
	// Different extensions map differently.
	n3 := a.Name("main.h")
	s3 := n3[strings.LastIndexByte(n3, '.')+1:]
	if s3 == s1 {
		t.Fatalf("distinct suffixes collided: %q vs %q", n1, n3)
	}
	// Same base, different extension shares base token.
	b1 := n1[:strings.LastIndexByte(n1, '.')]
	b3 := n3[:strings.LastIndexByte(n3, '.')]
	if b1 != b3 {
		t.Fatalf("base not shared: %q vs %q", n1, n3)
	}
}

func TestSpecialSuffixPreserved(t *testing.T) {
	a := newAnon()
	base := a.Name("draft")
	backup := a.Name("draft~")
	if backup != base+"~" {
		t.Fatalf("backup relation lost: %q vs %q~", backup, base)
	}
	rcs := a.Name("draft,v")
	if rcs != base+",v" {
		t.Fatalf("RCS relation lost: %q vs %q,v", rcs, base)
	}
	lk := a.Name("draft.lock")
	if lk != base+".lock" {
		t.Fatalf("lock relation lost: %q vs %q.lock", lk, base)
	}
}

func TestSpecialPrefixPreserved(t *testing.T) {
	a := newAnon()
	base := a.Name("draft")
	hashed := a.Name("#draft")
	if hashed != "#"+base {
		t.Fatalf("prefix relation lost: %q vs #%q", hashed, base)
	}
	dotted := a.Name(".secretrc")
	if !strings.HasPrefix(dotted, ".") {
		t.Fatalf("dot prefix lost: %q", dotted)
	}
	if dotted == ".secretrc" {
		t.Fatal("private dot file passed through")
	}
}

func TestPathPrefixSharing(t *testing.T) {
	a := newAnon()
	p1 := a.Path("home/jones/mail/inbox")
	p2 := a.Path("home/jones/projects/thesis.tex")
	parts1 := strings.Split(p1, "/")
	parts2 := strings.Split(p2, "/")
	if parts1[0] != parts2[0] || parts1[1] != parts2[1] {
		t.Fatalf("shared prefix broken: %q vs %q", p1, p2)
	}
	if parts1[2] == parts2[2] {
		t.Fatal("distinct components collided")
	}
}

func TestRecordAnonymization(t *testing.T) {
	a := newAnon()
	r := &core.Record{
		Kind: core.KindCall, Client: 0xC0A80105, Server: 0xC0A80101,
		UID: 501, GID: 100, Name: "love-letter.txt", Proc: core.MustProc("lookup"),
	}
	orig := *r
	a.Record(r)
	if r.Client == orig.Client || r.UID == orig.UID || r.Name == orig.Name {
		t.Fatalf("record not anonymized: %+v", r)
	}
	// Same inputs anonymize the same way in a second record.
	r2 := orig
	a.Record(&r2)
	if r2.Client != r.Client || r2.UID != r.UID || r2.Name != r.Name {
		t.Fatal("record anonymization inconsistent")
	}
}

func TestOmitMode(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Omit = true
	a := New(cfg)
	r := &core.Record{Kind: core.KindCall, Client: 5, UID: 501, GID: 100, Name: "x"}
	a.Record(r)
	if r.Name != "" || r.UID != 0 || r.GID != 0 || r.Client != 0 {
		t.Fatalf("omit left data: %+v", r)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a1 := New(DefaultConfig(1))
	a2 := New(DefaultConfig(2))
	same := 0
	for _, n := range []string{"projectx", "secret", "grades", "budget"} {
		if a1.Name(n) == a2.Name(n) {
			same++
		}
	}
	if same == 4 {
		t.Fatal("different seeds produced identical mappings (hash-like behavior)")
	}
	if a1.UID(501) == a2.UID(501) && a1.UID(502) == a2.UID(502) && a1.UID(503) == a2.UID(503) {
		t.Fatal("uid mapping looks deterministic across seeds")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := newAnon()
	inputs := []string{"alpha.c", "beta.tex", "gamma~", "#delta", "plain", "to do=now.txt", "two  spaces", "tab\tname", `q"uote`}
	want := map[string]string{}
	for _, n := range inputs {
		want[n] = a.Name(n)
	}
	u501 := a.UID(501)
	ip := a.IP(12345)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh anonymizer (different seed) loading the map must agree.
	b := New(DefaultConfig(999))
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for n, w := range want {
		if got := b.Name(n); got != w {
			t.Errorf("after load, Name(%q) = %q, want %q", n, got, w)
		}
	}
	if b.UID(501) != u501 {
		t.Error("uid mapping lost in save/load")
	}
	if b.IP(12345) != ip {
		t.Error("ip mapping lost in save/load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	b := newAnon()
	for _, text := range []string{
		"uid notanumber 5\n",
		"name \"unterminated 5\n",
		"bogus 1 2\n",
		"uid 1\n",
	} {
		if err := b.Load(strings.NewReader(text)); err == nil {
			t.Errorf("accepted %q", text)
		}
	}
}

func TestStats(t *testing.T) {
	a := newAnon()
	a.UID(501)
	a.GID(100)
	a.IP(1)
	a.Name("x.y")
	u, g, i, n, s := a.Stats()
	if u != 1 || g != 1 || i != 1 || n != 1 || s != 1 {
		t.Fatalf("stats: %d %d %d %d %d", u, g, i, n, s)
	}
}

func TestNameNeverEmptyQuick(t *testing.T) {
	a := newAnon()
	f := func(s string) bool {
		if s == "" {
			return a.Name(s) == ""
		}
		got := a.Name(s)
		// Mapping must be stable and non-empty for non-empty input.
		return got != "" && got == a.Name(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnonymizedNameStructure(t *testing.T) {
	// A deeply decorated name keeps all its markers.
	a := newAnon()
	got := a.Name("#report.tex~")
	if !strings.HasPrefix(got, "#") || !strings.HasSuffix(got, "~") || !strings.Contains(got, ".") {
		t.Fatalf("markers lost: %q", got)
	}
}
