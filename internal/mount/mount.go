// Package mount implements the MOUNT protocol (RFC 1813 Appendix I,
// program 100005) that accompanies NFS on the wire: clients call MNT
// with an export path to obtain the root file handle before any NFS
// traffic flows, and UMNT when done. The paper's traces begin with
// exactly this exchange ("EECS users can directly mount their home
// directories onto their workstations"), so the sniffer decodes it
// rather than dropping the packets as foreign.
package mount

import (
	"fmt"

	"repro/internal/nfs"
	"repro/internal/xdr"
)

// Procedures (v1 and v3 share these numbers).
const (
	ProcNull    = 0
	ProcMnt     = 1
	ProcDump    = 2
	ProcUmnt    = 3
	ProcUmntAll = 4
	ProcExport  = 5
	NumProcs    = 6
)

// Status codes.
const (
	OK             = 0
	ErrPerm        = 1
	ErrNoEnt       = 2
	ErrAccess      = 13
	ErrNotDir      = 20
	ErrServerFault = 10006
)

var procNames = [NumProcs]string{"null", "mnt", "dump", "umnt", "umntall", "export"}

// ProcName returns the lower-case procedure name ("mnt", "umnt", ...).
func ProcName(proc uint32) string {
	if proc < NumProcs {
		return procNames[proc]
	}
	return fmt.Sprintf("mnt-proc-%d", proc)
}

// MntArgs is the MNT/UMNT argument: the export path.
type MntArgs struct {
	DirPath string
}

// EncodeMntArgs writes the argument body.
func EncodeMntArgs(e *xdr.Encoder, a *MntArgs) {
	e.PutString(a.DirPath)
}

// DecodeMntArgs parses the argument body.
func DecodeMntArgs(body []byte) (*MntArgs, error) {
	d := xdr.NewDecoder(body)
	a := &MntArgs{DirPath: d.String()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// MntRes is the MNT result: status, and on success the filesystem root
// handle plus accepted auth flavors.
type MntRes struct {
	Status  uint32
	FH      nfs.FH
	Flavors []uint32
}

// EncodeMntRes writes the result body (mountres3).
func EncodeMntRes(e *xdr.Encoder, r *MntRes) {
	e.PutUint32(r.Status)
	if r.Status == OK {
		e.PutOpaque(r.FH)
		e.PutUint32(uint32(len(r.Flavors)))
		for _, f := range r.Flavors {
			e.PutUint32(f)
		}
	}
}

// DecodeMntRes parses the result body.
func DecodeMntRes(body []byte) (*MntRes, error) {
	d := xdr.NewDecoder(body)
	r := &MntRes{Status: d.Uint32()}
	if r.Status == OK {
		r.FH = append(nfs.FH(nil), d.Opaque()...)
		n := d.Count()
		if n > 16 {
			d.Fail(fmt.Errorf("mount: %d auth flavors", n))
		} else {
			for i := 0; i < n; i++ {
				r.Flavors = append(r.Flavors, d.Uint32())
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// Exports is a mount server: a table of export paths to root handles.
type Exports struct {
	table map[string]nfs.FH
	// Mounted tracks active mounts per (client, path) for DUMP-style
	// introspection; keyed by path, counting mounts.
	mounted map[string]int
}

// NewExports returns an empty export table.
func NewExports() *Exports {
	return &Exports{table: make(map[string]nfs.FH), mounted: make(map[string]int)}
}

// Add exports a path.
func (x *Exports) Add(path string, fh nfs.FH) {
	x.table[path] = fh
}

// Mnt handles a MNT call.
func (x *Exports) Mnt(path string) *MntRes {
	fh, ok := x.table[path]
	if !ok {
		return &MntRes{Status: ErrNoEnt}
	}
	x.mounted[path]++
	return &MntRes{Status: OK, FH: fh, Flavors: []uint32{1}} // AUTH_SYS
}

// Umnt handles a UMNT call (void reply; always succeeds).
func (x *Exports) Umnt(path string) {
	if x.mounted[path] > 0 {
		x.mounted[path]--
	}
}

// ActiveMounts reports the number of outstanding mounts of a path.
func (x *Exports) ActiveMounts(path string) int { return x.mounted[path] }
