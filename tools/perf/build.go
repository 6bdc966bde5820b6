package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// shipped are the binaries the end-to-end runs drive, built from the
// repository the benchmark sits in.
var shipped = []string{"nfsgen", "nfsconvert", "tracesplit", "nfsanalyze", "nfsworker", "nfstrace", "nfsmond", "nfsbench"}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares `module repro`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(raw)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the repository: no go.mod declaring `module repro` above the working directory")
		}
		dir = parent
	}
}

// sourceStamp fingerprints every Go source and go.mod under root by
// path, size and modification time, so binaries are rebuilt exactly
// when the tree they were built from changed.
func sourceStamp(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d %d\n", rel, info.Size(), info.ModTime().UnixNano())
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// build makes sure binDir holds the shipped binaries (and, for a traced
// run, the layer replay) built from the current tree. The first call in
// a checkout compiles; later ones find the stamp unchanged and return.
func build(ctx context.Context, root, binDir string, withLayers bool) error {
	stamp, err := sourceStamp(root)
	if err != nil {
		return err
	}
	stampPath := filepath.Join(binDir, ".stamp")
	if old, err := os.ReadFile(stampPath); err != nil || string(old) != stamp {
		// A stale set of binaries is worse than none.
		if err := os.RemoveAll(binDir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	goBuild := func(dir string, args ...string) error {
		cmd := exec.CommandContext(ctx, "go", append([]string{"build"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %w\n%s", strings.Join(args, " "), err, out)
		}
		return nil
	}
	missing := func(name string) bool {
		_, err := os.Stat(filepath.Join(binDir, name))
		return err != nil
	}
	for _, name := range shipped {
		if missing(name) {
			if err := goBuild(root, "-o", binDir+string(filepath.Separator), "./cmd/...", "./tools/tracesplit"); err != nil {
				return err
			}
			break
		}
	}
	if withLayers && missing("perflayers") {
		if err := goBuild(filepath.Join(root, "tools", "perf"), "-o", filepath.Join(binDir, "perflayers"), "./layers"); err != nil {
			return err
		}
	}
	return os.WriteFile(stampPath, []byte(stamp), 0o644)
}
