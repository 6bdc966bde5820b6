// Package cutgolden pins how a byte decoder answers every truncation of
// a sample. A sample is decoded at each prefix length and once more with
// trailing bytes appended; each answer is rendered as the first error's
// string or as the JSON of the decoded value. Consecutive cuts with the
// same answer collapse into one range line, so a golden file covering
// every cut of dozens of samples stays short enough to read in review.
//
// Tests use it to freeze a decoder's behaviour before a rewrite: the
// golden is cut from the old code, and the new code must reproduce it
// byte for byte.
package cutgolden

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trailer is appended to the whole sample for the trailing-bytes line.
var trailer = []byte{0xA5, 0xA5, 0xA5, 0xA5}

// Render appends the lines for one sample to b: "name [lo-hi] answer"
// for each run of prefix lengths with the same answer, then
// "name +4 answer" for the sample followed by four trailing bytes. Every
// cut is decoded from its own copy, so a decoder cannot read past the
// cut through spare capacity, and the answer is rendered before the next
// decode.
func Render(b *strings.Builder, name string, sample []byte, decode func([]byte) (any, error)) {
	answer := func(in []byte) string {
		v, err := decode(append([]byte(nil), in...))
		if err != nil {
			return "error: " + err.Error()
		}
		j, err := json.Marshal(v)
		if err != nil {
			return "unrenderable: " + err.Error()
		}
		return string(j)
	}
	lo, prev := 0, answer(sample[:0])
	for n := 1; n <= len(sample)+1; n++ {
		var cur string
		if n <= len(sample) {
			cur = answer(sample[:n])
		}
		if n <= len(sample) && cur == prev {
			continue
		}
		if lo == n-1 {
			fmt.Fprintf(b, "%s [%d] %s\n", name, lo, prev)
		} else {
			fmt.Fprintf(b, "%s [%d-%d] %s\n", name, lo, n-1, prev)
		}
		lo, prev = n, cur
	}
	fmt.Fprintf(b, "%s +%d %s\n", name, len(trailer), answer(append(append([]byte(nil), sample...), trailer...)))
}

// Check compares got with the golden file at path. A missing golden is
// written and the test fails, so a golden is regenerated by deleting it
// and running the test once, then reviewing the new file.
func Check(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s: review it and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s: first difference at line %d:\nwant %s\n got %s", path, i+1, w, g)
		}
	}
}
