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
//   - The mapping is configurable: well-known names (CVS, .inbox,
//     .pinerc, lock) and principals (root, daemon) can be passed
//     through; special prefixes and suffixes (#, ,v, ~) are preserved
//     so that "mbox~" anonymizes to anon(mbox)+"~".
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

	"repro/internal/core"
)

// Config controls the anonymizer. The zero value anonymizes everything
// with no pass-throughs.
type Config struct {
	// Seed drives the random mappings; traces anonymized with different
	// seeds are not comparable (by design).
	Seed int64
	// Omit removes names, UIDs, GIDs entirely instead of mapping them.
	Omit bool
	// PassNames are filename components passed through unchanged.
	PassNames []string
	// PassSuffixes are suffixes (without dot) passed through unchanged.
	PassSuffixes []string
	// PassUIDs and PassGIDs are principals passed through unchanged.
	PassUIDs []uint32
	PassGIDs []uint32
	// SpecialPrefixes are markers stripped before mapping and
	// reattached after (default "#").
	SpecialPrefixes []string
	// SpecialSuffixes are markers stripped before mapping and
	// reattached after (default "~", ",v", ".lock").
	SpecialSuffixes []string
}

// DefaultConfig mirrors the paper's own configuration: common mail and
// source-control names stay readable, lock markers are preserved, root
// and daemon stay identifiable.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed,
		PassNames: []string{
			"CVS", ".inbox", ".pinerc", ".cshrc", ".login", "lock",
			"mbox", "inbox", "core", "Makefile",
		},
		PassSuffixes:    []string{"lock", "tmp"},
		PassUIDs:        []uint32{0, 1}, // root, daemon
		PassGIDs:        []uint32{0, 1},
		SpecialPrefixes: []string{"#", "."},
		SpecialSuffixes: []string{"~", ",v", ".lock"},
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

	passNames map[string]bool
	passSufs  map[string]bool
	passUIDs  map[uint32]bool
	passGIDs  map[uint32]bool
}

// New builds an anonymizer from a config.
func New(cfg Config) *Anonymizer {
	a := &Anonymizer{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		uids:      make(map[uint32]uint32),
		gids:      make(map[uint32]uint32),
		ips:       make(map[uint32]uint32),
		names:     make(map[string]string),
		sufs:      make(map[string]string),
		usedID:    make(map[uint32]bool),
		usedIP:    make(map[uint32]bool),
		usedTok:   make(map[string]bool),
		passNames: make(map[string]bool),
		passSufs:  make(map[string]bool),
		passUIDs:  make(map[uint32]bool),
		passGIDs:  make(map[uint32]bool),
	}
	for _, n := range cfg.PassNames {
		a.passNames[n] = true
	}
	for _, s := range cfg.PassSuffixes {
		a.passSufs[s] = true
	}
	for _, u := range cfg.PassUIDs {
		a.passUIDs[u] = true
		a.usedID[u] = true // never map another id onto a passed one
	}
	for _, g := range cfg.PassGIDs {
		a.passGIDs[g] = true
		a.usedID[g] = true
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

func (a *Anonymizer) freshToken(n int) string {
	for {
		b := make([]byte, n)
		for i := range b {
			b[i] = tokenAlphabet[a.rng.Intn(len(tokenAlphabet))]
		}
		tok := string(b)
		if !a.usedTok[tok] {
			a.usedTok[tok] = true
			return tok
		}
	}
}

// UID maps a user id.
func (a *Anonymizer) UID(uid uint32) uint32 {
	if a.passUIDs[uid] {
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
	if a.passGIDs[gid] {
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

// Name maps one filename (a single path component). Special prefixes
// and suffixes are preserved around the mapped base; the extension is
// mapped separately from the base so suffix-sharing survives.
func (a *Anonymizer) Name(name string) string {
	if name == "" || a.passNames[name] {
		return name
	}
	// Peel special prefixes.
	var prefix string
	for changed := true; changed; {
		changed = false
		for _, p := range a.cfg.SpecialPrefixes {
			if p != "" && strings.HasPrefix(name, p) && len(name) > len(p) {
				prefix += p
				name = name[len(p):]
				changed = true
			}
		}
	}
	// Peel special suffixes (repeatedly: "mbox.lock~" keeps both).
	var suffix string
	for changed := true; changed; {
		changed = false
		for _, sfx := range a.cfg.SpecialSuffixes {
			if sfx != "" && strings.HasSuffix(name, sfx) && len(name) > len(sfx) {
				suffix = sfx + suffix
				name = name[:len(name)-len(sfx)]
				changed = true
			}
		}
	}
	if a.passNames[name] {
		return prefix + name + suffix
	}
	// Split the extension at the last dot.
	base, ext := name, ""
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		base, ext = name[:i], name[i+1:]
	}
	mapped := a.mapBase(base)
	if ext != "" {
		mapped += "." + a.mapSuffix(ext)
	}
	return prefix + mapped + suffix
}

func (a *Anonymizer) mapBase(base string) string {
	if base == "" {
		return ""
	}
	if a.passNames[base] {
		return base
	}
	if v, ok := a.names[base]; ok {
		return v
	}
	n := len(base)
	if n < 3 {
		n = 3
	}
	if n > 12 {
		n = 12
	}
	v := a.freshToken(n)
	a.names[base] = v
	return v
}

func (a *Anonymizer) mapSuffix(ext string) string {
	if a.passSufs[ext] {
		return ext
	}
	if v, ok := a.sufs[ext]; ok {
		return v
	}
	n := len(ext)
	if n < 2 {
		n = 2
	}
	if n > 6 {
		n = 6
	}
	v := a.freshToken(n)
	a.sufs[ext] = v
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
			a.usedTok[v] = true
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
