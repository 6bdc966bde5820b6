package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files pin every table, figure and experiment in absolute
// terms, not only against another configuration of the same build. They
// were cut with the binary of commit 2cd0e37, whose repro.Generate*
// still joined with the materializing core.Join:
//
//	nfsrepro -users 3 -clients 2 -days 1 -procs        > all.golden
//	nfsrepro -users 3 -clients 2 -days 1 -exp <name>   > exp_<name>.golden
//
// Regenerate one only in a change that means to alter the output, and
// say so there.
var scale = []string{"-users", "3", "-clients", "2", "-days", "1"}

func TestGolden(t *testing.T) {
	cases := map[string][]string{"all": {"-procs"}}
	for _, exp := range []string{"nfsiod", "names", "readahead", "loss", "hierarchy", "nvram", "quiet"} {
		cases["exp_"+exp] = []string{"-exp", exp}
	}
	for name, extra := range cases {
		name, extra := name, extra
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(append(scale[:len(scale):len(scale)], extra...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", name, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff reports the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nosuch"}, {"-table", "6"}, {"-figure", "9"}, {"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(scale[:len(scale):len(scale)], args...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// TestSingleTableAndFigure checks that -table and -figure print the
// same block the full run does.
func TestSingleTableAndFigure(t *testing.T) {
	all, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-table", "2"}, {"-figure", "1"}} {
		var stdout, stderr bytes.Buffer
		if code := run(append(scale[:len(scale):len(scale)], args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if stdout.Len() == 0 || !bytes.Contains(all, stdout.Bytes()) {
			t.Errorf("%v: output is not a block of the full run:\n%s", args, stdout.String())
		}
	}
}
