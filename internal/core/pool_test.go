package core

import (
	"bytes"
	"reflect"
	"testing"
)

// dirtyRecord sets every field of a record, so a decode into it that
// was not zeroed first keeps values the input never had.
func dirtyRecord(t *testing.T, i int) *Record {
	t.Helper()
	r := &Record{
		Time: 1e9 + float64(i), Kind: 'x', Client: 0xdeadbeef, Port: 7, Server: 0xfeedface,
		Proto: 'y', XID: 0x5eed, Version: 9, Proc: ProcSymlink,
		UID: 4242, GID: 4343, FH: InternFH("d1d1d1d1"), Name: "stale-name",
		FH2: InternFH("d2d2d2d2"), Name2: "stale-name2", Offset: 1 << 40, Count: 77,
		Stable: 2, SetSize: 1 << 33, HasSet: true,
		Status: 70, RCount: 99, Size: 1 << 35, FileID: 1 << 36, Mtime: 5e8,
		PreSize: 1 << 34, HasPre: true, NewFH: InternFH("d3d3d3d3"), EOF: true,
	}
	v := reflect.ValueOf(*r)
	for f := 0; f < v.NumField(); f++ {
		if v.Field(f).IsZero() {
			t.Fatalf("dirtyRecord leaves %s zero", v.Type().Field(f).Name)
		}
	}
	return r
}

// drainSpares empties the process-wide channels, so the records a
// test recycles next are the only spares the decoders can find.
func drainSpares() {
	for {
		select {
		case <-spareRecords:
		case <-emptyBatches:
		default:
			return
		}
	}
}

// poisonSpares recycles n batches of dirty records and returns them by
// identity.
func poisonSpares(t *testing.T, n int) map[*Record]bool {
	t.Helper()
	var b RecycleBatch
	dirty := map[*Record]bool{}
	for i := 0; i < n*recycleBatchSize; i++ {
		r := dirtyRecord(t, i)
		dirty[r] = true
		b.Recycle(r)
	}
	return dirty
}

// TestRecycledRecordsComeBackZeroed recycles records whose every field
// is set, then decodes a text and a binary stream, serially and through
// the read-ahead: every record must equal a fresh decode of the same
// stream. The text parser assigns only the kv fields a line carries, so
// a recycled record that was not zeroed shows as a stale field.
func TestRecycledRecordsComeBackZeroed(t *testing.T) {
	records := ingestRecords(3000)
	streams := []struct {
		name string
		data []byte
	}{
		{"text", noisyText(records)},
		{"binary", binaryTrace(t, records)},
	}
	for _, st := range streams {
		drainSpares()
		src, err := DetectSource(bytes.NewReader(st.data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := drain(src)
		if err != nil {
			t.Fatalf("%s: fresh decode: %v", st.name, err)
		}
		opens := []struct {
			name string
			open func() (RecordSource, error)
		}{
			{"serial", func() (RecordSource, error) { return DetectSource(bytes.NewReader(st.data)) }},
			{"readahead", func() (RecordSource, error) { return NewReadAhead(bytes.NewReader(st.data)) }},
		}
		for _, o := range opens {
			label := st.name + "/" + o.name
			dirty := poisonSpares(t, 4)
			src, err := o.open()
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(src)
			requireSameStream(t, label, want, got, nil, err)
			reused := 0
			for _, r := range got {
				if dirty[r] {
					reused++
				}
			}
			if reused < len(dirty) {
				t.Fatalf("%s: decoded into %d of %d recycled records; the test must reuse them all", label, reused, len(dirty))
			}
		}
	}
}
