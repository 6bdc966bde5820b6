package mount

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cutgolden"
	"repro/internal/nfs"
	"repro/internal/xdr"
)

// TestDecodeTruncationGolden pins what DecodeMntArgs and DecodeMntRes
// return for each prefix of an argument and of OK and error results, and
// for each with trailing bytes: the decoded value, or the first error.
// Delete testdata/truncation.golden and rerun to regenerate it.
func TestDecodeTruncationGolden(t *testing.T) {
	var b strings.Builder
	args := xdr.NewEncoder(64)
	EncodeMntArgs(args, &MntArgs{DirPath: "/home02/u0001"})
	cutgolden.Render(&b, "mnt args", args.Bytes(), func(body []byte) (any, error) { return DecodeMntArgs(body) })
	for _, r := range []struct {
		name string
		res  *MntRes
	}{
		{"mnt res ok", &MntRes{Status: OK, FH: nfs.MakeFH(42), Flavors: []uint32{0, 1}}},
		{"mnt res noent", &MntRes{Status: ErrNoEnt}},
		{"mnt res 17 flavors", &MntRes{Status: OK, FH: nfs.MakeFH(1), Flavors: make([]uint32, 17)}},
	} {
		e := xdr.NewEncoder(128)
		EncodeMntRes(e, r.res)
		cutgolden.Render(&b, r.name, e.Bytes(), func(body []byte) (any, error) { return DecodeMntRes(body) })
	}
	cutgolden.Check(t, filepath.Join("testdata", "truncation.golden"), b.String())
}
