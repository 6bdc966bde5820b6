package core

// Trace merging: the CAMPUS tracer watched fourteen virtual hosts (one
// per disk array), producing one capture per array. Cross-array
// analyses need the streams interleaved back into global time order,
// which is a k-way merge over already-sorted inputs.

import (
	"container/heap"
	"io"
)

// RecordSource is anything that yields records in time order —
// *Reader, *BinaryReader, and SliceSource all satisfy it.
type RecordSource interface {
	Next() (*Record, error)
}

// SliceSource adapts an in-memory record slice to RecordSource.
type SliceSource struct {
	Records []*Record
	i       int
}

// Next implements RecordSource.
func (s *SliceSource) Next() (*Record, error) {
	if s.i >= len(s.Records) {
		return nil, io.EOF
	}
	r := s.Records[s.i]
	s.i++
	return r, nil
}

type mergeItem struct {
	rec *Record
	src int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].rec.Time != h[j].rec.Time {
		return h[i].rec.Time < h[j].rec.Time
	}
	return h[i].src < h[j].src // stable across sources
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }

// Pop drops the last item; Merger never reads what it returns.
func (h *mergeHeap) Pop() any {
	*h = (*h)[:len(*h)-1]
	return nil
}

// Merger interleaves several time-sorted record sources into one
// time-sorted stream.
type Merger struct {
	sources []RecordSource
	h       mergeHeap
	primed  bool
}

// NewMerger builds a merger over the given sources.
func NewMerger(sources ...RecordSource) *Merger {
	return &Merger{sources: sources}
}

func (m *Merger) prime() error {
	for i, src := range m.sources {
		rec, err := src.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		m.h = append(m.h, mergeItem{rec: rec, src: i})
	}
	heap.Init(&m.h)
	m.primed = true
	return nil
}

// Next implements RecordSource over the merged stream. The top's source
// refills the top in place and one Fix restores the order; only a source
// at EOF pops, so no item goes through container/heap's any.
func (m *Merger) Next() (*Record, error) {
	if !m.primed {
		if err := m.prime(); err != nil {
			return nil, err
		}
	}
	if len(m.h) == 0 {
		return nil, io.EOF
	}
	top := &m.h[0]
	rec := top.rec
	next, err := m.sources[top.src].Next()
	switch {
	case err == nil:
		top.rec = next
		heap.Fix(&m.h, 0)
	case err == io.EOF:
		heap.Pop(&m.h)
	default:
		return nil, err
	}
	return rec, nil
}

// MergeAll drains a merger into a slice.
func MergeAll(sources ...RecordSource) ([]*Record, error) {
	m := NewMerger(sources...)
	var out []*Record
	for {
		rec, err := m.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
