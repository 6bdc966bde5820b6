package nfs

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xdr"
)

// TestDecoderAllocations: once a Decoder has decoded a procedure's
// body, decoding it again into a record allocates at most the strings
// the body carries (names, a symlink's target, READDIR entry names),
// where the package functions allocate every struct and handle.
func TestDecoderAllocations(t *testing.T) {
	var s Decoder
	for _, c := range []struct {
		version, procs  uint32
		argsFor, resFor func(uint32) any
		encArgs, encRes func(*xdr.Encoder, uint32, any) error
	}{
		{V2, V2NumProcs, v2ArgsFor, v2ResFor, EncodeArgs2, EncodeRes2},
		{V3, V3NumProcs, v3ArgsFor, v3ResFor, EncodeArgs3, EncodeRes3},
	} {
		for proc := uint32(0); proc < c.procs; proc++ {
			for _, reply := range []bool{false, true} {
				e := xdr.NewEncoder(512)
				var err error
				if reply {
					err = c.encRes(e, proc, c.resFor(proc))
				} else {
					err = c.encArgs(e, proc, c.argsFor(proc))
				}
				if err != nil {
					continue // no such body (v3 MKNOD args)
				}
				body := e.Bytes()
				var rec core.Record
				record := func() error {
					if reply {
						return s.ReplyRecord(&rec, c.version, proc, body)
					}
					return s.CallRecord(&rec, c.version, proc, body)
				}
				fresh, _ := DecodeArgs(c.version, proc, body)
				if reply {
					fresh, _ = DecodeRes(c.version, proc, body)
				}
				if err := record(); err != nil {
					t.Fatalf("v%d %s reply=%v: %v", c.version, ProcName(c.version, proc), reply, err)
				}
				allowed := float64(countStrings(reflect.ValueOf(fresh)))
				if got := testing.AllocsPerRun(20, func() { _ = record() }); got > allowed {
					t.Errorf("v%d %s reply=%v: %.0f allocations, want ≤ %.0f (its strings)",
						c.version, ProcName(c.version, proc), reply, got, allowed)
				}
			}
		}
	}
}

// countStrings counts the non-empty strings reachable from v.
func countStrings(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return countStrings(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += countStrings(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += countStrings(v.Index(i))
		}
		return n
	case reflect.String:
		if v.Len() > 0 {
			return 1
		}
	}
	return 0
}
