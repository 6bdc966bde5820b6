package pipeline

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/state"
)

// Partial states: a quiesced Live serializes every analyzer's
// mid-stream reduction (plus the router's name bindings and the stream
// statistics) into one state file. Another process reads it back and
// either resumes ingest from that exact point (checkpoint/resume, and
// the chain mode sequential analyses need) or merges several
// independent partials into the final result (the map/merge mode the
// coordinator uses). Output is byte-identical to a single-process run
// at any partitioning, which the equivalence tests pin down.

const (
	metaSection   = "meta"
	routerSection = "router"
)

// sectionName scopes an analyzer's section by its registration index,
// so one run can carry two analyzers of the same kind (Table 3 runs two
// run detectors with different configs in one pass).
func sectionName(i int, key string) string { return fmt.Sprintf("%d:%s", i, key) }

// Partial is a parsed state file: the identifying metadata plus the
// decoded section index, ready to resume or merge.
type Partial struct {
	// Label names the analysis that wrote the state; readers reject a
	// label mismatch before touching any section.
	Label string
	// Stats is the stream statistics over every op folded into the
	// state, including resumed ancestors.
	Stats Stats
	// Join is the cumulative call/reply matching statistics.
	Join core.JoinStats
	// Digest identifies this state file (SHA-256 over its bytes).
	Digest []byte
	// ParentDigest is the digest of the state this one resumed from;
	// empty for an unchained partial. A chain of partials is cumulative:
	// the last link holds the whole reduction.
	ParentDigest []byte

	file *state.File
}

// WritePartial serializes a quiesced Live's full partial state. label
// names the analysis; join carries the caller's cumulative join
// statistics (the joiner lives outside the engine); parent, when the
// run was itself resumed, links the chain for -merge validation.
func WritePartial(w io.Writer, lv *Live, label string, join core.JoinStats, parent *Partial) error {
	if !lv.done {
		return fmt.Errorf("pipeline: WritePartial needs a quiesced Live")
	}
	meta := &Partial{Label: label, Stats: lv.stats, Join: join}
	if parent != nil {
		meta.ParentDigest = parent.Digest
	}
	e := state.NewEncoder()
	c := e.Codec()
	e.Section(metaSection)
	meta.meta(c)
	// The router's binding map travels with the state: a resumed run
	// must resolve removes and renames of files bound before the cut.
	e.Section(routerSection)
	lv.rt.state(c)
	for i, a := range lv.analyzers {
		ad := a.adapter()
		e.Section(sectionName(i, ad.stateKey()))
		ad.encodeState(c)
	}
	return e.Flush(w)
}

// meta codes the metadata section: the one layout WritePartial writes
// and ParsePartial reads.
func (p *Partial) meta(c *state.Codec) {
	c.String(&p.Label, "analysis label")
	c.Varint(&p.Stats.Ops)
	c.F64(&p.Stats.MinT)
	c.F64(&p.Stats.MaxT)
	c.Varint(&p.Join.Calls)
	c.Varint(&p.Join.Replies)
	c.Varint(&p.Join.Matched)
	c.Varint(&p.Join.UnmatchedCalls)
	c.Varint(&p.Join.OrphanReplies)
	c.Bytes(&p.ParentDigest)
	if p.Stats.Ops < 0 {
		c.Failf("state claims %d ops", p.Stats.Ops)
	} else if n := len(p.ParentDigest); n != 0 && n != sha256.Size {
		c.Failf("parent digest is %d bytes, want %d", n, sha256.Size)
	}
}

// state codes the router's binding map.
func (rt *router) state(c *state.Codec) {
	state.Map(c, &rt.names, "router binding count", binding.compare, func(b *binding, fh *core.FH) {
		c.FH(&b.dir)
		c.String(&b.name, "binding name")
		c.FH(fh)
	})
}

func (a binding) compare(b binding) int { return state.CompareBinding(a.dir, a.name, b.dir, b.name) }

// ReadPartial reads a whole state file from r and parses it with
// ParsePartial.
func ReadPartial(r io.Reader) (*Partial, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParsePartial(data)
}

// ParsePartial parses a state file and its metadata. Sections beyond the
// metadata are validated lazily, when Resume or MergePartials decodes
// them against concrete analyzers. The Partial keeps views into data, so
// data must not change while the Partial is in use.
func ParsePartial(data []byte) (*Partial, error) {
	f, err := state.Parse(data)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	p := &Partial{Digest: sum[:], file: f}

	d, ok := f.Section(metaSection)
	if !ok {
		return nil, fmt.Errorf("pipeline: state file has no %q section: %w", metaSection, state.ErrCorrupt)
	}
	p.meta(d.Codec())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeInto folds the partial's per-analyzer sections into already
// opened analyzers.
func (p *Partial) decodeInto(analyzers []Analyzer) error {
	for i, a := range analyzers {
		ad := a.adapter()
		name := sectionName(i, ad.stateKey())
		d, found := p.file.Section(name)
		if !found {
			return fmt.Errorf("pipeline: state file has no section %q — written by a different analysis?: %w", name, state.ErrCorrupt)
		}
		refused := ad.decodeState(d.Codec())
		if err := d.Finish(); err != nil {
			return err
		}
		if refused != nil {
			return fmt.Errorf("pipeline: analysis %q refuses to merge the states: %w", ad.stateKey(), refused)
		}
	}
	return nil
}

// Resume seeds a freshly opened Live with the partial's state: router
// bindings, stream statistics, and every analyzer's reduction. The Live
// must not have ingested anything yet; afterwards, feeding the
// remainder of the stream produces exactly what one uninterrupted run
// over the whole stream would.
func (p *Partial) Resume(lv *Live) error {
	if lv.done {
		return fmt.Errorf("pipeline: Resume after Finish/Abort")
	}
	if lv.stats.Ops != 0 {
		return fmt.Errorf("pipeline: Resume into a Live that has already ingested")
	}
	d, ok := p.file.Section(routerSection)
	if !ok {
		return fmt.Errorf("pipeline: state file has no %q section: %w", routerSection, state.ErrCorrupt)
	}
	lv.rt.state(d.Codec())
	if err := d.Finish(); err != nil {
		return err
	}
	if err := p.decodeInto(lv.analyzers); err != nil {
		return err
	}
	lv.stats = p.Stats
	return nil
}

// MergePartials folds serialized partials into freshly constructed
// analyzers and closes them, leaving results readable exactly as after
// a Run. Two composition modes, detected from the states themselves:
//
//   - A resume chain (any partial names a parent): the states must form
//     one unbroken digest-validated chain, given in any order; each link
//     is cumulative, so the result renders from the last link alone.
//
//   - Independent partials: merged in trace-time order. Rejected if any
//     analyzer is sequential — those states only compose by chaining.
//
// Returns the merged stream and join statistics.
func MergePartials(analyzers []Analyzer, partials []*Partial) (Stats, core.JoinStats, error) {
	if len(partials) == 0 {
		return Stats{}, core.JoinStats{}, fmt.Errorf("pipeline: no partial states to merge")
	}
	sorted := append([]*Partial(nil), partials...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Stats.MinT < sorted[j].Stats.MinT })

	chained := false
	for _, p := range sorted {
		if len(p.ParentDigest) > 0 {
			chained = true
			break
		}
	}
	if chained {
		last, err := chainEnd(partials)
		if err != nil {
			return Stats{}, core.JoinStats{}, err
		}
		sorted = []*Partial{last}
	} else if len(sorted) > 1 {
		for _, a := range analyzers {
			if IsSequential(a) {
				return Stats{}, core.JoinStats{}, fmt.Errorf("pipeline: analysis %q is order-dependent and cannot merge independent states; chain the pieces with -resume", a.adapter().stateKey())
			}
		}
	}

	for _, a := range analyzers {
		a.adapter().open(1)
	}
	var stats Stats
	var join core.JoinStats
	for _, p := range sorted {
		if err := p.decodeInto(analyzers); err != nil {
			return Stats{}, core.JoinStats{}, err
		}
		// A piece without operations has no times to widen the span with.
		if stats.Ops == 0 {
			stats = p.Stats
		} else if p.Stats.Ops > 0 {
			if p.Stats.MinT < stats.MinT {
				stats.MinT = p.Stats.MinT
			}
			if p.Stats.MaxT > stats.MaxT {
				stats.MaxT = p.Stats.MaxT
			}
			stats.Ops += p.Stats.Ops
		}
		join.Merge(p.Join)
	}
	for _, a := range analyzers {
		a.adapter().close()
	}
	return stats, join, nil
}

// chainEnd follows a resume chain's parent digests from its root, the
// one link that resumed from nothing, and returns its last link. Every
// link's stats are cumulative, so they all start at the root's MinT and
// only the digests say which link comes next. Each link must have
// exactly one successor but the last, and the walk must reach them all.
func chainEnd(links []*Partial) (*Partial, error) {
	var root *Partial
	next := make(map[string]*Partial, len(links))
	for _, p := range links {
		if len(p.ParentDigest) == 0 {
			if root != nil {
				return nil, fmt.Errorf("pipeline: chained states: two pieces start a chain — pieces from different runs")
			}
			root = p
			continue
		}
		if next[string(p.ParentDigest)] != nil {
			return nil, fmt.Errorf("pipeline: chained states: two pieces resume from the same state — pieces from different runs")
		}
		next[string(p.ParentDigest)] = p
	}
	if root == nil {
		return nil, fmt.Errorf("pipeline: chained states: first piece resumed from a state not given here")
	}
	last := root
	for n := 1; n < len(links); n++ {
		p := next[string(last.Digest)]
		if p == nil {
			return nil, fmt.Errorf("pipeline: chained states: the chain breaks after piece %d of %d — pieces missing or from different runs", n, len(links))
		}
		last = p
	}
	return last, nil
}

// RunPartitioned runs analyzers over pre-joined op pieces as a resume
// chain of serialized states: every piece but the last runs on fresh
// same-configured analyzers, quiesces, and serializes; the next piece
// resumes from those bytes. The last piece lands on the caller's
// analyzers and finishes them, so results read exactly as after
// RunSlice over the concatenation — which they match byte for byte.
// This is the in-process harness that exercises the whole
// encode/decode/resume surface.
func RunPartitioned(cfg Config, pieces [][]*core.Op, analyzers ...Analyzer) (Stats, error) {
	if len(pieces) == 0 {
		return RunSlice(cfg, nil, analyzers...), nil
	}
	var parent *Partial
	for k, piece := range pieces {
		last := k == len(pieces)-1
		current := analyzers
		if !last {
			current = make([]Analyzer, len(analyzers))
			for i, a := range analyzers {
				current[i] = a.adapter().newLike()
			}
		}
		lv := NewLive(cfg, current...)
		if parent != nil {
			if err := parent.Resume(lv); err != nil {
				lv.Abort()
				return Stats{}, err
			}
		}
		for _, op := range piece {
			lv.Feed(op)
		}
		if last {
			return lv.Finish(), nil
		}
		lv.Quiesce()
		var buf bytes.Buffer
		if err := WritePartial(&buf, lv, "partition", core.JoinStats{}, parent); err != nil {
			return Stats{}, err
		}
		p, err := ReadPartial(&buf)
		if err != nil {
			return Stats{}, err
		}
		parent = p
	}
	panic("unreachable")
}
