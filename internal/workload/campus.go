package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/vfs"
)

// CampusConfig parameterizes the CAMPUS email workload (§3.2, §6.1.2).
// Defaults reproduce the paper's per-user behaviour; Users scales the
// population (the real home02 array held ~700 of the 10,000 accounts —
// simulate fewer and compare ratios and shapes, which are
// scale-invariant).
type CampusConfig struct {
	Seed  int64
	Users int
	// Days of trace to generate (the paper's window is 7, Sunday
	// through Saturday).
	Days float64

	// MailboxMedian is the median inbox size in bytes (the paper
	// reports >2 MB invalidation re-reads; inboxes are "considerably
	// larger than any other commonly-accessed file").
	MailboxMedian float64
	// DeliveriesPerDay is the per-user weekday email arrival count.
	DeliveriesPerDay float64
	// SessionsPerDay is the per-user weekday interactive mail-session
	// count (pine or POP full fetch).
	SessionsPerDay float64
	// PollsPerDay is the per-user weekday POP auto-check count: lock,
	// validate, unlock, no data when nothing changed.
	PollsPerDay float64
	// LoginsPerDay is the per-user weekday shell-login count (reads
	// .cshrc/.login).
	LoginsPerDay float64
	// ServerIP overrides the simulated disk array's address (the real
	// deployment exposed fourteen arrays as fourteen virtual hosts).
	// Zero selects ServerIPCampus.
	ServerIP uint32
}

// DefaultCampusConfig returns the paper-calibrated configuration at the
// given scale.
func DefaultCampusConfig(users int, days float64, seed int64) CampusConfig {
	return CampusConfig{
		Seed:             seed,
		Users:            users,
		Days:             days,
		MailboxMedian:    2 << 20,
		DeliveriesPerDay: 18,
		SessionsPerDay:   7,
		PollsPerDay:      90,
		LoginsPerDay:     3,
	}
}

// campusUser is one account's state.
type campusUser struct {
	uid       uint32
	gid       uint32
	homeFH    nfs.FH
	inboxFH   nfs.FH
	inboxSize uint64 // generator's belief (server is authoritative)
	popOffset uint64 // how far the POP server has fetched
	inSession bool
	composerN int
}

// Campus is the assembled CAMPUS system.
type Campus struct {
	cfg   CampusConfig
	rng   *rand.Rand
	sim   *Sim
	curve *DiurnalCurve
	srv   *server.Server
	smtp  *client.Client // mail delivery host
	pop   *client.Client // POP server host
	login *client.Client // interactive login host
	users []*campusUser
	root  nfs.FH
}

// ServerIPCampus is the traced disk array's address.
const ServerIPCampus = 0x0a010001

// NewCampus builds the filesystem, hosts, and users. Records flow to
// sink in capture order.
func NewCampus(cfg CampusConfig, sink client.Sink) *Campus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fs := vfs.New()
	fs.QuotaPerUID = 50 << 20 // the CAMPUS 50 MB default quota
	simClock := 0.0
	fs.Clock = func() float64 { return simClock }
	srv := server.New(fs)

	c := &Campus{
		cfg:   cfg,
		rng:   rng,
		sim:   newSim(cfg.Days*Day, sink),
		curve: NewDiurnalCurve(0.25),
		srv:   srv,
		root:  fs.RootFH(),
	}
	// Hook the server clock to the simulator.
	fs.Clock = func() float64 { return c.sim.Now }

	// The three NFS client hosts: all NFSv3 over TCP (§3.2), jumbo net.
	serverIP := cfg.ServerIP
	if serverIP == 0 {
		serverIP = ServerIPCampus
	}
	mk := func(ip uint32, seed int64) *client.Client {
		cl := c.sim.newHost(client.Config{
			IP: ip, UID: 0, GID: 0, Version: nfs.V3, Proto: core.ProtoTCP,
			Daemons: 6, Seed: seed,
		}, srv, serverIP)
		cl.AttrTimeout = 30
		return cl
	}
	c.smtp = mk(0x0a010010, cfg.Seed^101)
	c.pop = mk(0x0a010011, cfg.Seed^202)
	c.login = mk(0x0a010012, cfg.Seed^303)

	c.populate(fs)
	return c
}

// Server exposes the simulated NFS server (for inspection in tests).
func (c *Campus) Server() *server.Server { return c.srv }

// Capture frames the traffic of the three client hosts (SMTP, POP,
// login) into packets at mtu for sink, in capture order, as Run
// releases it.
func (c *Campus) Capture(sink client.PacketSink, mtu int) { c.sim.capture(sink, mtu) }

// populate creates home directories, dot files, and pre-aged inboxes
// directly in the filesystem (setup happens before the trace window and
// must not appear in it).
func (c *Campus) populate(fs *vfs.FS) {
	for i := 0; i < c.cfg.Users; i++ {
		uid := uint32(2000 + i)
		gid := uint32(200)
		home, err := fs.MkdirAll(fmt.Sprintf("/home02/u%04d", i), uid, gid)
		if err != nil {
			panic(err)
		}
		u := &campusUser{uid: uid, gid: gid, homeFH: nfs.MakeFH(home.ID)}

		mkfile := func(name string, size uint64) *vfs.Inode {
			ino, err := fs.Create(home.ID, name, uid, gid, 0600)
			if err != nil {
				panic(err)
			}
			if size > 0 {
				if _, err := fs.Write(ino.ID, 0, size); err != nil {
					panic(err)
				}
			}
			return ino
		}
		// Dot files: .pinerc 11–26 KB (§6.3), shell rc files one block.
		mkfile(".pinerc", 11*1024+uint64(c.rng.Int63n(15*1024)))
		mkfile(".cshrc", 1024+uint64(c.rng.Int63n(3072)))
		mkfile(".login", 512+uint64(c.rng.Int63n(2048)))
		mkfile(".addressbook", 1024+uint64(c.rng.Int63n(8*1024)))

		// The inbox: lognormal around the configured median, capped
		// well under quota.
		size := uint64(LogNormal(c.rng, c.cfg.MailboxMedian, 1.0))
		if size < 50*1024 {
			size = 50 * 1024
		}
		if size > 30<<20 {
			size = 30 << 20
		}
		inbox := mkfile("inbox", size)
		u.inboxFH = nfs.MakeFH(inbox.ID)
		u.inboxSize = size
		u.popOffset = size // POP has already fetched the pre-trace mail

		// A couple of saved-mail folders.
		folders, err := fs.Mkdir(home.ID, "mail", uid, gid, 0700)
		if err != nil {
			panic(err)
		}
		for _, fn := range []string{"saved-messages", "sent-mail"} {
			ino, err := fs.Create(folders.ID, fn, uid, gid, 0600)
			if err != nil {
				panic(err)
			}
			fs.Write(ino.ID, 0, uint64(10*1024+c.rng.Int63n(500*1024)))
		}
		c.users = append(c.users, u)
	}
}

// Run schedules the whole window's events and executes them.
func (c *Campus) Run() {
	for i := range c.users {
		u := c.users[i]
		PoissonSchedule(c.rng, c.curve, c.cfg.DeliveriesPerDay, 0, c.sim.End,
			func(t float64) { c.sim.At(t, func(t float64) { c.deliver(u, t) }) })
		PoissonSchedule(c.rng, c.curve, c.cfg.SessionsPerDay, 0, c.sim.End,
			func(t float64) { c.sim.At(t, func(t float64) { c.session(u, t) }) })
		PoissonSchedule(c.rng, c.curve, c.cfg.PollsPerDay, 0, c.sim.End,
			func(t float64) { c.sim.At(t, func(t float64) { c.poll(u, t) }) })
		PoissonSchedule(c.rng, c.curve, c.cfg.LoginsPerDay, 0, c.sim.End,
			func(t float64) { c.sim.At(t, func(t float64) { c.shellLogin(u, t) }) })
	}
	c.sim.Run()
}

// deliver is one SMTP delivery: lock, append the message, unlock.
func (c *Campus) deliver(u *campusUser, t float64) {
	cl := c.smtp
	cl.UID, cl.GID = 0, 0 // deliveries run as the mail system
	lockName := "inbox.lock"
	lfh, t := cl.Create(t, u.homeFH, lockName, true)
	if fh, t2 := cl.LookupCached(t, u.homeFH, "inbox"); fh != nil {
		t = t2
		_ = fh
	}
	msg := uint64(LogNormal(c.rng, 4*1024, 1.1))
	if msg < 300 {
		msg = 300
	}
	if msg > 1<<20 {
		msg = 1 << 20
	}
	// Append to the inbox; track size from the server's truth.
	fh := u.inboxFH
	if ino, err := c.srv.FS.GetFH(fh); err == nil {
		t = cl.WriteRange(t, fh, ino.Size, msg)
		u.inboxSize = ino.Size
	}
	if lfh != nil {
		cl.Remove(t+0.001, u.homeFH, lockName)
	}
}

// poll is a POP auto-check: lock, validate the inbox, and — when the
// mailbox changed — re-read the whole file. The flat-file format forces
// the POP server to re-parse the entire mailbox to rebuild its message
// list: the "unfortunate interaction" of §6.1.2 that makes mailbox
// re-reads the majority of all CAMPUS reads. Most polls see no change
// and move no data, which is where the "50% of files accessed are
// mailbox locks" figure and the metadata floor come from.
func (c *Campus) poll(u *campusUser, t float64) {
	cl := c.pop
	cl.UID, cl.GID = u.uid, u.gid
	lfh, t := cl.Create(t, u.homeFH, "inbox.lock", true)
	_, t = cl.LookupCached(t, u.homeFH, "inbox")
	if c.rng.Float64() < 0.5 {
		_, t = cl.Getattr(t, u.homeFH)
	}
	_, t = cl.StatCached(t, u.inboxFH)
	if ino, err := c.srv.FS.GetFH(u.inboxFH); err == nil {
		if ino.Size != u.popOffset {
			_, t = cl.ReadFile(t, u.inboxFH, ino.Size)
		}
		u.popOffset = ino.Size
	}
	if lfh != nil {
		cl.Remove(t+0.001, u.homeFH, "inbox.lock")
	}
}

// session is an interactive mail session: read config, lock, scan the
// mailbox, then a sequence of in-session saves ending with the final
// rewrite and unlock. Intermediate phases are scheduled so deliveries
// interleave, which is what gives CAMPUS blocks their 10–15 minute
// median lifetime.
func (c *Campus) session(u *campusUser, t float64) {
	if u.inSession {
		return // one interactive session at a time per user
	}
	u.inSession = true
	cl := c.login
	cl.UID, cl.GID = u.uid, u.gid

	// Read the mail client config and validate the other dot files.
	pinerc, t2 := cl.LookupCached(t, u.homeFH, ".pinerc")
	if pinerc != nil {
		if ino, err := c.srv.FS.GetFH(pinerc); err == nil {
			_, t2 = cl.ReadFile(t2, pinerc, ino.Size)
		}
	}
	for _, dot := range []string{".addressbook", ".cshrc"} {
		if fh, t3 := cl.LookupCached(t2, u.homeFH, dot); fh != nil {
			_, t2 = cl.Getattr(t3, fh)
		}
	}
	if c.rng.Float64() < 0.2 {
		_, t2 = cl.Readdir(t2, u.homeFH)
	}
	// Lock briefly, scan the inbox, release. Mail clients hold the
	// dotlock only around mailbox I/O, which is why 99.9% of lock
	// files live under half a second (§6.3).
	_, t2 = cl.LookupCached(t2, u.homeFH, "inbox")
	_, t2 = cl.Create(t2, u.homeFH, "inbox.lock", true)
	if ino, err := c.srv.FS.GetFH(u.inboxFH); err == nil {
		_, t2 = cl.ReadFile(t2, u.inboxFH, ino.Size)
	}
	_, t2 = cl.Remove(t2, u.homeFH, "inbox.lock")

	// Session length 10–40 min with saves every 6–12 min.
	length := (10 + c.rng.Float64()*30) * 60
	deadline := t2 + length
	c.scheduleSessionPhase(u, t2, deadline)
}

// scheduleSessionPhase runs the next save (or the final one) for an
// open session.
func (c *Campus) scheduleSessionPhase(u *campusUser, t, deadline float64) {
	next := t + (6+c.rng.Float64()*6)*60
	final := next >= deadline
	if final {
		next = deadline
	}
	c.sim.At(next, func(now float64) {
		cl := c.login
		cl.UID, cl.GID = u.uid, u.gid
		t := now
		// Rescan if mail arrived since the last look: the file-grain
		// client cache re-reads the whole mailbox (§6.1.2).
		if changed, t2 := cl.StatCached(t, u.inboxFH); changed {
			if ino, err := c.srv.FS.GetFH(u.inboxFH); err == nil {
				_, t2 = cl.ReadFile(t2, u.inboxFH, ino.Size)
			}
			t = t2
		}
		// Page through a few messages: the webmail front end re-reads
		// each viewed message from the mailbox (fresh process, no
		// cache), producing the short sequential read runs that
		// dominate the CAMPUS read-run count.
		t = c.viewMessages(u, t)
		// Occasionally compose a message (temp file in the home dir).
		if c.rng.Float64() < 0.25 {
			t = c.compose(u, t)
		}
		// Save a message to a folder now and then.
		if c.rng.Float64() < 0.3 {
			t = c.folderAppend(u, t)
		}
		_, t = cl.Create(t, u.homeFH, "inbox.lock", true)
		t = c.saveMailbox(u, t, final)
		_, t = cl.Remove(t+0.001, u.homeFH, "inbox.lock")
		if final {
			u.inSession = false
			// Bursty checking: users often come back within half an
			// hour, which is what pins block lifetimes near the
			// session length (§5.2.3).
			if c.rng.Float64() < 0.5 {
				c.sim.At(t+(8+c.rng.Float64()*22)*60, func(t2 float64) {
					c.session(u, t2)
				})
			}
			return
		}
		c.scheduleSessionPhase(u, t, deadline)
	})
	// The simulator drops events past the horizon, which would leave
	// the session open; close it eagerly in that case.
	if next >= c.sim.End {
		u.inSession = false
	}
}

// saveMailbox writes the mail client's changes back to the mailbox.
// Three shapes, matching the run mix the paper reports (§5.1, §6.4):
//
//   - Final saves often rewrite the whole file ("Quitting the mail
//     client causes some or all of the mailbox file to be rewritten"):
//     an *entire* sequential write run.
//   - Most mid-session saves flush the recently changed tail as one
//     contiguous region: a *sequential* (not entire) run.
//   - Some saves rewrite scattered per-message regions, seeking over
//     unchanged messages: the long seek-prone write runs whose
//     sequentiality metric hovers near 0.6 in Figure 5.
//
// Rare expunges shrink the file, killing tail blocks by truncation
// (the paper's 0.6% of deaths).
func (c *Campus) saveMailbox(u *campusUser, t float64, final bool) float64 {
	cl := c.login
	ino, err := c.srv.FS.GetFH(u.inboxFH)
	if err != nil {
		return t
	}
	size := ino.Size
	if size == 0 {
		return t
	}
	const blk = 8192
	style := "tail"
	if final && c.rng.Float64() < 0.9 {
		style = "full"
	} else if c.rng.Float64() < 0.12 {
		style = "scattered"
	}
	newSize := size
	if c.rng.Float64() < 0.04 { // rare expunge shrinks the file
		newSize = uint64(float64(size) * (0.5 + c.rng.Float64()*0.4))
		newSize &^= blk - 1
		if newSize == 0 {
			newSize = blk
		}
	}
	switch style {
	case "full":
		t = cl.WriteRange(t, u.inboxFH, 0, newSize)
	case "tail":
		region := uint64(64*1024) + uint64(c.rng.Int63n(192*1024))
		if region > newSize {
			region = newSize
		}
		from := (newSize - region) &^ (blk - 1)
		t = cl.WriteRange(t, u.inboxFH, from, newSize-from)
	case "scattered":
		// Bursts of a few blocks separated by seeks over unchanged
		// messages; roughly 60% of accesses end up k-consecutive.
		from := uint64(0)
		if newSize > 1<<20 {
			from = (newSize - 1<<20) &^ (blk - 1)
		}
		off := from
		for off < newSize {
			stretch := uint64(3+c.rng.Intn(8)) * blk
			if off+stretch > newSize {
				stretch = newSize - off
			}
			t = cl.WriteRange(t, u.inboxFH, off, stretch)
			off += stretch
			if c.rng.Float64() < 0.5 {
				off += uint64(12+c.rng.Intn(30)) * blk
			}
		}
	}
	if newSize < size {
		t = cl.SetattrTruncate(t, u.inboxFH, newSize)
	}
	u.inboxSize = newSize
	return t
}

// compose creates a mail-composer temp file, writes the draft, reads it
// back, and removes it (§6.3: 2.5% of files created per day; 98% < 8 KB;
// 45% live < 1 minute).
func (c *Campus) compose(u *campusUser, t float64) float64 {
	cl := c.login
	u.composerN++
	name := fmt.Sprintf("pico.%06d", u.composerN)
	fh, t := cl.Create(t, u.homeFH, name, true)
	if fh == nil {
		return t
	}
	size := uint64(LogNormal(c.rng, 2*1024, 0.9))
	if size > 40*1024 {
		size = 40 * 1024
	}
	// The draft stays in the composer's memory; only writes reach the
	// server.
	t = cl.WriteRange(t, fh, 0, size)
	// Most drafts are sent and removed quickly; some linger.
	delay := 20 + c.rng.ExpFloat64()*60
	end := t + delay
	if end < c.sim.End {
		c.sim.At(end, func(now float64) {
			cl.UID, cl.GID = u.uid, u.gid
			cl.Remove(now, u.homeFH, name)
		})
	}
	return t
}

// shellLogin reads the shell startup files on the login host.
func (c *Campus) shellLogin(u *campusUser, t float64) {
	cl := c.login
	cl.UID, cl.GID = u.uid, u.gid
	for _, f := range []string{".cshrc", ".login"} {
		fh, t2 := cl.LookupCached(t, u.homeFH, f)
		if fh != nil {
			if ino, err := c.srv.FS.GetFH(fh); err == nil {
				_, t2 = cl.ReadFile(t2, fh, ino.Size)
			}
		}
		t = t2
	}
}

// viewMessages reads a handful of individual messages out of the
// mailbox: short reads at scattered starting points, each sequential
// within itself. Separated by human think time, each view is its own
// run. A few views jump backwards mid-view (re-reading headers), which
// is where CAMPUS's small population of random read runs comes from.
func (c *Campus) viewMessages(u *campusUser, t float64) float64 {
	cl := c.login
	ino, err := c.srv.FS.GetFH(u.inboxFH)
	if err != nil || ino.Size == 0 {
		return t
	}
	views := 1 + c.rng.Intn(2)
	for i := 0; i < views; i++ {
		n := uint64(12*1024) + uint64(c.rng.Int63n(56*1024))
		var off uint64
		if ino.Size > n {
			off = uint64(c.rng.Int63n(int64(ino.Size-n))) &^ 8191
		}
		_, t = cl.ReadRange(t, u.inboxFH, off, n)
		if c.rng.Float64() < 0.12 && off >= 16*1024 {
			// Jump back to re-read the message header block.
			_, t = cl.ReadRange(t+0.5, u.inboxFH, off-16*1024, 8192)
		}
		think := 35 + c.rng.ExpFloat64()*40 // think time: separate runs
		if think > 90 {
			think = 90
		}
		t += think
	}
	return t
}

// folderAppend saves a message to a mail folder (mail/saved-messages or
// mail/sent-mail): a lookup and a short append, adding the non-inbox,
// non-lock file population the paper observes.
func (c *Campus) folderAppend(u *campusUser, t float64) float64 {
	cl := c.login
	dirFH, t := cl.LookupCached(t, u.homeFH, "mail")
	if dirFH == nil {
		return t
	}
	name := "saved-messages"
	if c.rng.Float64() < 0.4 {
		name = "sent-mail"
	}
	fh, t := cl.LookupCached(t, dirFH, name)
	if fh == nil {
		return t
	}
	if ino, err := c.srv.FS.GetFH(fh); err == nil {
		msg := uint64(LogNormal(c.rng, 4*1024, 1.0))
		if msg > 256*1024 {
			msg = 256 * 1024
		}
		t = cl.WriteRange(t, fh, ino.Size, msg)
	}
	return t
}
