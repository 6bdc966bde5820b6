// Package anon implements the paper's trace anonymizer (§2): consistent
// but arbitrary replacement of UIDs, GIDs, IP addresses, and filename
// components.
//
// Properties reproduced from the paper:
//
//   - Mappings are table-based and random, NOT hashes: without the
//     mapping table an attacker cannot verify a guess offline, and
//     traces from different sites cannot be cross-compared.
//   - Pathnames are anonymized per component, so two paths sharing a
//     prefix share the anonymized prefix.
//   - Filename suffixes are anonymized separately from the base name,
//     so all files sharing ".c" share one anonymized suffix.
//   - The name features the name-based analyses read stay as they are:
//     every row of analysis.NameFeatures (well-known names such as CVS,
//     inbox and lock, markers such as #, ~ and ,v, extensions such as
//     .c and .tex), so "mbox~" anonymizes to anon(mbox)+"~" and a name
//     keeps its category. Root and daemon (ids 0 and 1) stay too.
//   - Everything can be omitted entirely (Omit mode) for maximum
//     privacy at the cost of name-based analyses.
//
// Mappings can be saved and reloaded so multi-file traces anonymize
// consistently across runs.
package anon

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Config controls the anonymizer.
type Config struct {
	// Seed drives the random mappings; traces anonymized with different
	// seeds are not comparable (by design).
	Seed int64
	// Omit removes names, UIDs, GIDs entirely instead of mapping them.
	Omit bool
}

// DefaultConfig returns the paper's configuration for seed: names, ids
// and addresses mapped, the name features kept.
func DefaultConfig(seed int64) Config { return Config{Seed: seed} }

// keptIDs is the count of the low ids that pass through unchanged:
// root and daemon.
const keptIDs = 2

// The name features of analysis.NameFeatures, by where they sit in a
// name. Name keeps each as it appears.
var (
	keptNames     = map[string]bool{}
	keptExts      = map[string]bool{}
	prefixMarkers []string
	suffixMarkers []string
)

func init() {
	for _, f := range analysis.NameFeatures {
		switch f.Kind {
		case analysis.Exact:
			keptNames[f.Text] = true
		case analysis.Prefix:
			prefixMarkers = append(prefixMarkers, f.Text)
		case analysis.Suffix:
			suffixMarkers = append(suffixMarkers, f.Text)
		case analysis.Ext:
			keptExts[f.Text] = true
		}
	}
}

// Anonymizer holds the mapping tables. Create with New; safe for
// sequential use.
type Anonymizer struct {
	cfg Config
	rng *rand.Rand

	uids  map[uint32]uint32
	gids  map[uint32]uint32
	ips   map[uint32]uint32
	names map[string]string
	sufs  map[string]string

	usedID  map[uint32]bool // collision avoidance for uids/gids
	usedIP  map[uint32]bool
	usedTok map[string]bool
	tokLen  map[int]int // used tokens of the alphabet, by length
}

// New builds an anonymizer from a config.
func New(cfg Config) *Anonymizer {
	a := &Anonymizer{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		uids:    make(map[uint32]uint32),
		gids:    make(map[uint32]uint32),
		ips:     make(map[uint32]uint32),
		names:   make(map[string]string),
		sufs:    make(map[string]string),
		usedID:  make(map[uint32]bool),
		usedIP:  make(map[uint32]bool),
		usedTok: make(map[string]bool),
		tokLen:  make(map[int]int),
	}
	for id := uint32(0); id < keptIDs; id++ {
		a.usedID[id] = true // never map another id onto a kept one
	}
	// A token equal to a table word would give a name a feature it did
	// not have: a base mapped to "pico" before an extension reads as
	// the "pico." marker, an extension mapped to "tex" as a source
	// file. Tokens are drawn around them.
	for w := range keptNames {
		a.useToken(w)
	}
	for w := range keptExts {
		a.useToken(w)
	}
	for _, p := range prefixMarkers {
		a.useToken(strings.TrimSuffix(p, "."))
	}
	return a
}

func (a *Anonymizer) freshID() uint32 {
	for {
		v := uint32(a.rng.Int63n(1 << 24)) // compact but roomy id space
		if !a.usedID[v] {
			a.usedID[v] = true
			return v
		}
	}
}

func (a *Anonymizer) freshIP() uint32 {
	for {
		// Map into 10.x.x.x to make anonymized addresses obvious.
		v := 0x0a000000 | uint32(a.rng.Int63n(1<<24))
		if !a.usedIP[v] {
			a.usedIP[v] = true
			return v
		}
	}
}

const tokenAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// freshToken draws an unused token of n characters, or of the next
// length that has one left once all of length n are used.
func (a *Anonymizer) freshToken(n int) string {
	for a.tokensFull(n) {
		n++
	}
	for {
		b := make([]byte, n)
		for i := range b {
			b[i] = tokenAlphabet[a.rng.Intn(len(tokenAlphabet))]
		}
		tok := string(b)
		if !a.usedTok[tok] {
			a.useToken(tok)
			return tok
		}
	}
}

// tokensFull reports whether every token of n characters is used.
func (a *Anonymizer) tokensFull(n int) bool {
	pool := 1
	for i := 0; i < n; i++ {
		if pool *= len(tokenAlphabet); pool > a.tokLen[n] {
			return false
		}
	}
	return true
}

// useToken marks tok used. Only tokens of the alphabet count towards
// their length's pool: no other can be drawn.
func (a *Anonymizer) useToken(tok string) {
	if a.usedTok[tok] {
		return
	}
	a.usedTok[tok] = true
	if strings.Trim(tok, tokenAlphabet) == "" {
		a.tokLen[len(tok)]++
	}
}

// UID maps a user id.
func (a *Anonymizer) UID(uid uint32) uint32 {
	if uid < keptIDs {
		return uid
	}
	if v, ok := a.uids[uid]; ok {
		return v
	}
	v := a.freshID()
	a.uids[uid] = v
	return v
}

// GID maps a group id.
func (a *Anonymizer) GID(gid uint32) uint32 {
	if gid < keptIDs {
		return gid
	}
	if v, ok := a.gids[gid]; ok {
		return v
	}
	v := a.freshID()
	a.gids[gid] = v
	return v
}

// IP maps a host address.
func (a *Anonymizer) IP(ip uint32) uint32 {
	if v, ok := a.ips[ip]; ok {
		return v
	}
	v := a.freshIP()
	a.ips[ip] = v
	return v
}

// Name maps one filename (a single path component). The name
// features of analysis.NameFeatures are kept: a table name as a whole,
// its markers around the mapped middle (even when nothing is left
// between them) and a table extension. Any other extension is mapped
// separately from the base, so suffix-sharing survives.
func (a *Anonymizer) Name(name string) string {
	if name == "" || keptNames[name] {
		return name
	}
	// Peel markers until none is left at either end: "mbox.lock~"
	// keeps both of its own.
	var head, tail string
	for i := 0; i < len(prefixMarkers); i++ {
		if rest, ok := strings.CutPrefix(name, prefixMarkers[i]); ok {
			head, name, i = head+prefixMarkers[i], rest, -1
		}
	}
	for i := 0; i < len(suffixMarkers); i++ {
		if rest, ok := strings.CutSuffix(name, suffixMarkers[i]); ok {
			name, tail, i = rest, suffixMarkers[i]+tail, -1
		}
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return head + a.mapPart(a.names, keptNames, name[:i], 3, 12) + "." +
			a.mapPart(a.sufs, keptExts, name[i+1:], 2, 6) + tail
	}
	return head + a.mapPart(a.names, keptNames, name, 3, 12) + tail
}

// mapPart maps a base through a.names or an extension through a.sufs:
// an empty or kept part stays, a new one gets a fresh token of its
// length clamped to [lo, hi].
func (a *Anonymizer) mapPart(m map[string]string, kept map[string]bool, part string, lo, hi int) string {
	if part == "" || kept[part] {
		return part
	}
	if v, ok := m[part]; ok {
		return v
	}
	v := a.freshToken(min(max(len(part), lo), hi))
	m[part] = v
	return v
}

// Path maps a /-separated path per component, preserving structure.
func (a *Anonymizer) Path(p string) string {
	if p == "" {
		return ""
	}
	parts := strings.Split(p, "/")
	for i, part := range parts {
		parts[i] = a.Name(part)
	}
	return strings.Join(parts, "/")
}

// Record anonymizes one trace record in place.
func (a *Anonymizer) Record(r *core.Record) {
	if a.cfg.Omit {
		r.Name, r.Name2 = "", ""
		r.UID, r.GID = 0, 0
		r.Client, r.Server = 0, 0
		return
	}
	r.Client = a.IP(r.Client)
	r.Server = a.IP(r.Server)
	if r.Kind == core.KindCall {
		r.UID = a.UID(r.UID)
		r.GID = a.GID(r.GID)
	}
	if r.Name != "" {
		r.Name = a.Name(r.Name)
	}
	if r.Name2 != "" {
		r.Name2 = a.Name(r.Name2)
	}
}

// Stats reports mapping table sizes.
func (a *Anonymizer) Stats() (uids, gids, ips, names, suffixes int) {
	return len(a.uids), len(a.gids), len(a.ips), len(a.names), len(a.sufs)
}

// Save writes the mapping tables in a reloadable text form. Order is
// deterministic so saves are diffable.
func (a *Anonymizer) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# anon map v1 seed=%d\n", a.cfg.Seed)
	writeU32 := func(kind string, m map[uint32]uint32) {
		keys := make([]uint32, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Fprintf(bw, "%s %d %d\n", kind, k, m[k])
		}
	}
	writeU32("uid", a.uids)
	writeU32("gid", a.gids)
	writeU32("ip", a.ips)
	writeStr := func(kind string, m map[string]string) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, "%s %s %s\n", kind, strconv.Quote(k), strconv.Quote(m[k]))
		}
	}
	writeStr("name", a.names)
	writeStr("suffix", a.sufs)
	return bw.Flush()
}

// Load merges a previously saved mapping table into the anonymizer, so
// later traces reuse earlier assignments.
func (a *Anonymizer) Load(r io.Reader) error {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for s.Scan() {
		lineNo++
		line := strings.TrimSpace(s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := mapFields(line)
		if len(fields) != 3 {
			return fmt.Errorf("anon: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		switch fields[0] {
		case "uid", "gid", "ip":
			k, err1 := strconv.ParseUint(fields[1], 10, 32)
			v, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("anon: line %d: bad numeric mapping", lineNo)
			}
			switch fields[0] {
			case "uid":
				a.uids[uint32(k)] = uint32(v)
				a.usedID[uint32(v)] = true
			case "gid":
				a.gids[uint32(k)] = uint32(v)
				a.usedID[uint32(v)] = true
			case "ip":
				a.ips[uint32(k)] = uint32(v)
				a.usedIP[uint32(v)] = true
			}
		case "name", "suffix":
			k, err1 := strconv.Unquote(fields[1])
			v, err2 := strconv.Unquote(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("anon: line %d: bad string mapping", lineNo)
			}
			if fields[0] == "name" {
				a.names[k] = v
			} else {
				a.sufs[k] = v
			}
			a.useToken(v)
		default:
			return fmt.Errorf("anon: line %d: unknown kind %q", lineNo, fields[0])
		}
	}
	return s.Err()
}

// mapFields splits a table line into its fields. A quoted string is one
// field even when it holds spaces, as Save quotes names.
func mapFields(line string) []string {
	var fields []string
	for line = strings.TrimLeft(line, " \t"); line != ""; line = strings.TrimLeft(line, " \t") {
		n := strings.IndexAny(line, " \t")
		if q, err := strconv.QuotedPrefix(line); err == nil {
			n = len(q)
		} else if n < 0 {
			n = len(line)
		}
		fields = append(fields, line[:n])
		line = line[n:]
	}
	return fields
}
