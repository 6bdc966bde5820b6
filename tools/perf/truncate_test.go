package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTruncateTraceCutsWhereNoCallIsPending(t *testing.T) {
	lines := []string{
		"1.0 C a.1 s T 10 3 read fh=1",
		"1.1 C a.2 s T 10 3 read fh=2", // same xid, other port: its own call
		"1.2 R a.1 s T 10 3 read status=0",
		"1.3 C a.1 s T 11 3 read fh=1",
		"1.4 R a.2 s T 10 3 read status=0",
		"1.5 R a.1 s T 11 3 read status=0", // first quiescent point at or after 3 records
		"1.6 C a.1 s T 12 3 read fh=1",
		"1.7 R a.1 s T 12 3 read status=0",
	}
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	if err := os.WriteFile(src, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ want, kept int64 }{{1, 6}, {3, 6}, {6, 6}, {7, 8}, {100, 8}} {
		n, err := truncateTrace(src, dst, c.want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.kept || string(got) != strings.Join(lines[:c.kept], "\n")+"\n" {
			t.Errorf("want %d: kept %d records, expected %d:\n%s", c.want, n, c.kept, got)
		}
	}
	if err := os.WriteFile(src, []byte("not a trace line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := truncateTrace(src, dst, 1); err == nil {
		t.Error("a malformed line was accepted")
	}
}
