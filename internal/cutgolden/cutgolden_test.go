package cutgolden

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodePair needs two bytes and rejects a first byte of 0xFF.
func decodePair(b []byte) (any, error) {
	if len(b) < 2 {
		return nil, errors.New("short")
	}
	if b[0] == 0xFF {
		return nil, errors.New("bad lead")
	}
	return map[string]int{"a": int(b[0]), "n": len(b)}, nil
}

func TestRenderCollapsesRuns(t *testing.T) {
	var b strings.Builder
	Render(&b, "pair", []byte{1, 2, 3}, decodePair)
	Render(&b, "bad", []byte{0xFF}, decodePair)
	want := `pair [0-1] error: short
pair [2] {"a":1,"n":2}
pair [3] {"a":1,"n":3}
pair +4 {"a":1,"n":7}
bad [0-1] error: short
bad +4 error: bad lead
`
	if got := b.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	path := filepath.Join(t.TempDir(), "render.golden")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	Check(t, path, b.String())
}
