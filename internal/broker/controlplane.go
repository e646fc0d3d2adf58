package broker

// The live Algorithm-1 control plane: the second shell over the
// transport-agnostic engine in internal/algo1 (the DES router in
// internal/core is the first), and the broker's only route plane.
//
// Every broker measures its own links from real traffic — alpha from ping
// and ACK round trips, gamma from hop-by-hop ACK outcomes, with a low-rate
// PROBE exchange covering links no data currently crosses — and floods the
// measured record set to its neighbors as a wire.LinkState frame, together
// with its subscription membership: one (topic, deadline) record per topic
// it has local subscribers for. It floods whenever an estimate moves or the
// membership changes, and every AdvertInterval regardless, repairing floods
// lost to link churn. Floods carry an origin-local, strictly increasing
// epoch; receivers drop stale replays, re-flood newer records to their
// other neighbors, and fold the records into a link-state database
// (linkStateDB) that implements algo1.Deps. Applying a flood diffs it
// against the origin's previous record set, so the deltas handed to the
// incremental rebuild driver are 1:1 with what the gossip actually
// changed: a quiet control epoch is a pointer-identity no-op, and a link
// death re-sorts the affected Theorem-1 sending lists within about one
// LinkStateInterval of the flood arriving.
//
// The membership records are the driver's (topic, subscriber) pair set.
// Every rebuild publishes a copy-on-write ctrlSnapshot: this broker's
// sending lists (shardShell.SendingList), each topic's publish destination
// set — the subscriber brokers the gossiped graph reaches — and the
// per-pair <d, r> that monitoring reports.

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo1"
	"repro/internal/topology"
	"repro/internal/wire"
)

const (
	// ctrlMaxNodeID bounds broker IDs accepted from gossip. The frame-ID
	// encoding already caps overlay IDs at 16 bits; enforcing the same
	// bound here keeps a hostile flood from inflating the overlay graph.
	ctrlMaxNodeID = 1 << 16
	// ctrlChangeLogMax bounds the database's per-version changed-link log;
	// a driver further behind than the log is handed every known link
	// instead (a sound over-approximation).
	ctrlChangeLogMax = 4096
	// ctrlAlphaTolerance / ctrlGammaTolerance are how far a local estimate
	// must move before the broker re-floods it.
	ctrlAlphaTolerance = time.Millisecond
	ctrlGammaTolerance = 0.01
	// maxDataSamples bounds the per-link map of outbound frame send times
	// kept for ACK-derived alpha sampling.
	maxDataSamples = 32
	// ctrlLostGrace is how many LinkStateIntervals a member broker the
	// gossiped graph stops reaching stays in the destination sets. A link
	// that resets and redials withdraws and re-floods within that time, and
	// a publish in between must still name the member, or it is lost
	// rather than held; a member unreachable for longer (crashed, or
	// partitioned beyond a blip) drops out.
	ctrlLostGrace = 2
)

// ctrlLink is one directed link estimate as gossip reported it.
type ctrlLink struct {
	alpha time.Duration
	gamma float64
}

// ctrlOrigin is one broker's latest flooded record set: its links and its
// membership, sorted by topic.
type ctrlOrigin struct {
	epoch uint64
	links map[int32]ctrlLink
	subs  []wire.SubRecord
}

// linkStateDB is the gossip-fed monitoring substrate: each origin's latest
// record set under its flood epoch, plus a bounded changed-link log keyed
// by an estimate version that advances only when an applied flood actually
// moved an estimate. It implements algo1.Deps for the rebuild driver.
//
// A crashed broker's own records linger (nobody floods on its behalf), but
// they are harmless: reaching it requires a live inbound link, and its
// neighbors withdraw those from their own record sets as soon as the TCP
// connection drops. Its lingering membership keeps its pairs registered,
// but an unreachable subscriber has empty sending lists and is left out of
// every destination set.
type linkStateDB struct {
	mu      sync.Mutex
	origins map[int32]*ctrlOrigin
	version uint64
	// topoVer advances when the link or node SET changes (not mere
	// estimate drift) — the driver's graph must be rebuilt then.
	topoVer uint64
	// memberVer advances when any origin's membership changes — the
	// driver's pair set must be re-synced then.
	memberVer uint64
	// changes[k] holds the links whose estimates changed moving the
	// version from logBase+k to logBase+k+1.
	changes [][][2]int
	logBase uint64
}

func newLinkStateDB() *linkStateDB {
	return &linkStateDB{origins: make(map[int32]*ctrlOrigin)}
}

// apply folds one flood into the database; it retains none of ls's
// slices. newer reports whether the epoch advanced (the flood should be
// re-flooded); changed whether an estimate or the membership actually
// moved (the driver has work).
func (db *linkStateDB) apply(ls *wire.LinkState) (newer, changed bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	origin := ls.Origin
	os := db.origins[origin]
	if os != nil && ls.Epoch <= os.epoch {
		return false, false
	}
	if os == nil {
		os = &ctrlOrigin{links: make(map[int32]ctrlLink)}
		db.origins[origin] = os
	}
	os.epoch = ls.Epoch
	subs := slices.Clone(ls.Subs)
	slices.SortFunc(subs, func(a, b wire.SubRecord) int { return cmp.Compare(a.Topic, b.Topic) })
	subs = slices.CompactFunc(subs, func(a, b wire.SubRecord) bool { return a.Topic == b.Topic })
	membership := !slices.Equal(subs, os.subs)
	if membership {
		os.subs = subs
		db.memberVer++
	}
	next := make(map[int32]ctrlLink, len(ls.Links))
	for _, r := range ls.Links {
		if r.Gamma <= 0 {
			continue // an explicit withdrawal: simply absent from the new set
		}
		next[r.To] = ctrlLink{alpha: r.Alpha, gamma: r.Gamma}
	}
	var delta [][2]int
	topo := false
	for to, nl := range next {
		ol, had := os.links[to]
		if !had {
			topo = true
		}
		if !had || ol != nl {
			delta = append(delta, [2]int{int(origin), int(to)})
		}
	}
	for to := range os.links {
		if _, still := next[to]; !still {
			delta = append(delta, [2]int{int(origin), int(to)})
			topo = true
		}
	}
	os.links = next
	if topo {
		db.topoVer++
	}
	if len(delta) == 0 {
		return true, membership
	}
	db.changes = append(db.changes, delta)
	db.version++
	if len(db.changes) > ctrlChangeLogMax {
		drop := len(db.changes) - ctrlChangeLogMax
		db.changes = append(db.changes[:0], db.changes[drop:]...)
		db.logBase += uint64(drop)
	}
	return true, true
}

// versions returns the topology- and membership-change counters.
func (db *linkStateDB) versions() (topo, members uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.topoVer, db.memberVer
}

// member is one membership record: subscriber broker sub has local
// subscribers for topic, the loosest of them requiring deadline.
type member struct {
	topic, sub int32
	deadline   time.Duration
}

// members lists every origin's membership records, ordered by topic then
// subscriber.
func (db *linkStateDB) members() []member {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []member
	for o, os := range db.origins {
		for _, s := range os.subs {
			out = append(out, member{topic: s.Topic, sub: o, deadline: s.Deadline})
		}
	}
	slices.SortFunc(out, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.topic, b.topic), cmp.Compare(a.sub, b.sub))
	})
	return out
}

// reachable returns every broker a directed path of live links (each hop
// reported by its origin) leads to from src, src included.
func (db *linkStateDB) reachable(src int32) map[int32]bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	seen := map[int32]bool{src: true}
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if os := db.origins[u]; os != nil {
			for v := range os.links {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return seen
}

// buildGraph materializes the overlay graph the database currently
// describes: one node per broker ID up to the highest seen, one undirected
// edge per link either endpoint reports. Edge delays are cosmetic (the
// rebuild snapshot reads estimates through LinkEstimate).
func (db *linkStateDB) buildGraph() *topology.Graph {
	db.mu.Lock()
	defer db.mu.Unlock()
	maxID := -1
	for o, os := range db.origins {
		for to := range os.links {
			if int(o) > maxID {
				maxID = int(o)
			}
			if int(to) > maxID {
				maxID = int(to)
			}
		}
	}
	g := topology.NewGraph(maxID + 1)
	for o, os := range db.origins {
		for to, l := range os.links {
			if o == to || g.HasLink(int(o), int(to)) {
				continue
			}
			_ = g.AddLink(int(o), int(to), l.alpha)
		}
	}
	return g
}

// EstimateVersion implements algo1.Deps.
func (db *linkStateDB) EstimateVersion() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// AppendChangedLinks implements algo1.Deps: the logged deltas for versions
// (from, to], or every known link when the log no longer reaches back far
// enough.
func (db *linkStateDB) AppendChangedLinks(from, to uint64, dst [][2]int) [][2]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if from < db.logBase {
		for o, os := range db.origins {
			for t := range os.links {
				dst = append(dst, [2]int{int(o), int(t)})
			}
		}
		return dst
	}
	for v := from; v < to && v-db.logBase < uint64(len(db.changes)); v++ {
		dst = append(dst, db.changes[v-db.logBase]...)
	}
	return dst
}

// LinkEstimate implements algo1.Deps: the directed estimate the link's
// origin last flooded.
func (db *linkStateDB) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	os := db.origins[int32(u)]
	if os == nil {
		return 0, 0, false
	}
	l, ok := os.links[int32(v)]
	if !ok {
		return 0, 0, false
	}
	return l.alpha, l.gamma, true
}

// linkStats snapshots the database for monitoring, sorted by (from, to).
func (db *linkStateDB) linkStats() []wire.LinkStat {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []wire.LinkStat
	for o, os := range db.origins {
		for to, l := range os.links {
			out = append(out, wire.LinkStat{
				From: o, To: to, Alpha: l.alpha, Gamma: l.gamma, Epoch: os.epoch,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// snapshotFloods renders every origin's current record set as LinkState
// frames — the full-database sync sent to a neighbor on attach so a
// restarted broker converges without waiting out every origin's next
// refresh.
func (db *linkStateDB) snapshotFloods() []*wire.LinkState {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*wire.LinkState, 0, len(db.origins))
	for o, os := range db.origins {
		ls := &wire.LinkState{Origin: o, Epoch: os.epoch, Links: make([]wire.LinkRecord, 0, len(os.links)), Subs: slices.Clone(os.subs)}
		for to, l := range os.links {
			ls.Links = append(ls.Links, wire.LinkRecord{To: to, Alpha: l.alpha, Gamma: l.gamma})
		}
		slices.SortFunc(ls.Links, func(a, b wire.LinkRecord) int { return int(a.To) - int(b.To) })
		out = append(out, ls)
	}
	return out
}

// ctrlSnapshot is the data plane's copy-on-write view of the control
// plane: Theorem-1 sending lists per (topic, subscriber broker), the sorted
// destination set per topic for publishes, and the per-pair route stats
// for monitoring. Nothing in it is mutated after publication.
type ctrlSnapshot struct {
	lists        map[routeKey][]int
	destsByTopic map[int32][]int
	routes       []wire.RouteStat
}

type routeKey struct {
	topic int32
	sub   int32
}

// ctrlPlane owns the broker's gossip-fed control state: the link-state
// database, the incremental rebuild driver and the flood/probe schedule.
// All mutable non-atomic state is confined to the control goroutine
// (loop); other goroutines interact through the database's own lock, the
// kick channel and the atomic counters.
type ctrlPlane struct {
	b    *Broker
	db   *linkStateDB
	drv  *algo1.Driver
	kick chan struct{}
	// frozen is a test hook: while set, the control loop skips its steps,
	// so the published sending lists stay fixed.
	frozen atomic.Bool

	// epoch is this broker's own flood epoch: wall-clock seeded so a
	// restarted broker's floods always outrank its previous incarnation's,
	// then incremented per flood. lastLinks/lastSubs/lastFlood are the
	// last flood's content and time.
	epoch     uint64
	lastLinks []wire.LinkRecord
	lastSubs  []wire.SubRecord
	lastFlood time.Time
	// topoVer/memberVer are the db versions the driver's graph and pair
	// set currently reflect.
	topoVer, memberVer uint64
	// lostAt is when each unreachable member broker was first seen
	// unreachable; lostHeld reports that the last publish kept one of them
	// within ctrlLostGrace, so the next step must publish again.
	lostAt   map[int32]time.Time
	lostHeld bool
	probeTok uint64 // probe token allocator (control goroutine only)
	budgets  map[time.Duration][]time.Duration

	// Counters mirrored for Stats/statsReply (read from any goroutine).
	sent, recv, stale          atomic.Uint64
	probes, probeReplies       atomic.Uint64
	epochA, versionA           atomic.Uint64
	rebuildsA, noopsA, tablesA atomic.Uint64
}

func newCtrlPlane(b *Broker) *ctrlPlane {
	db := newLinkStateDB()
	return &ctrlPlane{
		b:       b,
		db:      db,
		drv:     algo1.NewDriver(topology.NewGraph(0), db, algo1.DriverOptions{Build: algo1.BuildOptions{M: b.cfg.M}}),
		kick:    make(chan struct{}, 1),
		epoch:   uint64(time.Now().UnixNano()),
		budgets: make(map[time.Duration][]time.Duration),
	}
}

// kickCtrl nudges the control loop to run a step ahead of its ticker —
// after gossip changed an estimate or a membership, a peer attached, a link
// dropped, or the local membership changed. Best-effort: a pending kick
// already guarantees a prompt step.
func (c *ctrlPlane) kickCtrl() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// loop is the control goroutine: one step per LinkStateInterval, sooner
// when kicked.
func (c *ctrlPlane) loop() {
	ticker := time.NewTicker(c.b.cfg.LinkStateInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.b.done:
			return
		case <-ticker.C:
		case <-c.kick:
		}
		if !c.frozen.Load() {
			c.step()
		}
	}
}

// step runs one control epoch: re-measure and maybe flood the local links
// and membership, probe idle links, sync the pair set from the database,
// rebuild incrementally and publish the new snapshot.
func (c *ctrlPlane) step() {
	now := time.Now()
	c.floodLocal(now)
	c.probeIdle(now)
	synced := c.syncPairs()
	if c.drv.Rebuild() || synced || c.lostHeld {
		c.publish(now)
	}
	st := c.drv.Stats()
	c.versionA.Store(st.EstimateVersion)
	c.rebuildsA.Store(st.Epochs - st.Noops)
	c.noopsA.Store(st.Noops)
	c.tablesA.Store(st.TablesBuilt)
}

// localRecords measures this broker's connected links, sorted by neighbor.
func (c *ctrlPlane) localRecords() []wire.LinkRecord {
	b := c.b
	ids := make([]int, 0, len(b.neighbors))
	for id := range b.neighbors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	recs := make([]wire.LinkRecord, 0, len(ids))
	for _, id := range ids {
		nc := b.neighbors[id]
		if !nc.connected() {
			continue
		}
		alpha, gamma := nc.estimate()
		recs = append(recs, wire.LinkRecord{To: int32(id), Alpha: alpha, Gamma: gamma})
	}
	return recs
}

// recordsClose reports whether two record sets agree within the re-flood
// tolerances (same links, estimates barely moved).
func recordsClose(a, b []wire.LinkRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To {
			return false
		}
		da := a[i].Alpha - b[i].Alpha
		if da < 0 {
			da = -da
		}
		dg := a[i].Gamma - b[i].Gamma
		if dg < 0 {
			dg = -dg
		}
		if da > ctrlAlphaTolerance || dg > ctrlGammaTolerance {
			return false
		}
	}
	return true
}

// floodLocal refreshes this broker's own record set: when an estimate
// moved past tolerance, the membership changed, or the AdvertInterval
// repair is due, the set is applied to the local database under a fresh
// epoch and flooded to every neighbor. Applying the flooded values — not
// the raw estimates — keeps every database in the overlay converging on
// identical content, so every broker computes identical tables.
func (c *ctrlPlane) floodLocal(now time.Time) {
	links := c.localRecords()
	subs := c.b.localSubs()
	if recordsClose(links, c.lastLinks) && slices.Equal(subs, c.lastSubs) &&
		now.Sub(c.lastFlood) < c.b.cfg.AdvertInterval {
		return
	}
	c.lastLinks, c.lastSubs, c.lastFlood = links, subs, now
	c.epoch++
	c.epochA.Store(c.epoch)
	ls := &wire.LinkState{Origin: int32(c.b.cfg.ID), Epoch: c.epoch, Links: links, Subs: subs}
	c.db.apply(ls)
	c.flood(ls, -1)
}

// flood sends one LinkState to every connected neighbor except `except`
// (the peer it arrived from) and the origin itself. The message is shared
// read-only across writer pipelines.
func (c *ctrlPlane) flood(ls *wire.LinkState, except int) {
	for id, nc := range c.b.neighbors {
		if id == except || id == int(ls.Origin) {
			continue
		}
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
}

// syncTo pushes the full database to one freshly attached neighbor, then
// schedules a step so local estimates re-flood promptly.
func (c *ctrlPlane) syncTo(nc *neighborConn) {
	for _, ls := range c.db.snapshotFloods() {
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
	c.kickCtrl()
}

// handleLinkState folds one received flood into the database, re-floods
// newer records onward and wakes the control loop when an estimate or the
// membership moved. m is recycled by the caller's Reader after return, so
// records are copied before they are re-flooded.
func (b *Broker) handleLinkState(nc *neighborConn, m *wire.LinkState) {
	c := b.ctrl
	c.recv.Add(1)
	if m.Origin < 0 || m.Origin >= ctrlMaxNodeID || m.Origin == int32(b.cfg.ID) {
		return // invalid origin, or our own flood reflected back
	}
	for _, r := range m.Links {
		if r.To < 0 || r.To >= ctrlMaxNodeID {
			b.logf("neighbor %d: link-state origin %d names node %d, dropping flood", nc.id, m.Origin, r.To)
			return
		}
	}
	ls := &wire.LinkState{Origin: m.Origin, Epoch: m.Epoch, Links: slices.Clone(m.Links), Subs: slices.Clone(m.Subs)}
	newer, changed := c.db.apply(ls)
	if !newer {
		c.stale.Add(1)
		return
	}
	c.flood(ls, nc.id)
	if changed {
		c.kickCtrl()
	}
}

// probeIdle keeps gamma live on links no data currently crosses: one
// outstanding PROBE per connected neighbor whose delivery estimate has had
// no signal for a ping interval. An unanswered probe decays gamma exactly
// like a missed ACK; the echo feeds alpha (RTT/2) and nudges gamma up.
func (c *ctrlPlane) probeIdle(now time.Time) {
	b := c.b
	for _, nc := range b.neighbors {
		if !nc.connected() {
			continue
		}
		if tok, at := nc.probeState(); tok != 0 {
			alpha, _ := nc.estimate()
			if now.Sub(at) <= 2*alpha+b.cfg.AckGuard {
				continue // still within its ACK-equivalent timeout
			}
			if nc.probeExpire(tok) {
				nc.ackTimedOut()
			}
		}
		if now.Sub(nc.gammaSignalAt()) < b.cfg.PingInterval {
			continue
		}
		c.probeTok++
		tok := c.probeTok
		nc.probeStart(tok, now)
		if nc.send(&wire.Probe{Token: tok}) == nil {
			c.probes.Add(1)
		} else {
			nc.probeExpire(tok)
		}
	}
}

// handleProbe answers a neighbor's probe or folds its echo into the link
// estimate.
func (b *Broker) handleProbe(nc *neighborConn, m *wire.Probe) {
	if !m.Reply {
		_ = nc.send(&wire.Probe{Token: m.Token, Reply: true})
		return
	}
	if nc.probeReply(m.Token, time.Now()) {
		b.ctrl.probeReplies.Add(1)
	}
}

// syncPairs mirrors the database's membership records into the driver's
// (topic, subscriber) pair set, first rebuilding the driver's graph when
// the gossiped topology changed. Budgets are uniform deadline vectors —
// every node's residual D_XS is the subscription deadline — reproducing the
// live admission rule (publishers are decoupled, so per-publisher residuals
// are unknowable; see the package comment in broker.go). It reports
// whether the graph or the membership changed since the last sync.
func (c *ctrlPlane) syncPairs() bool {
	topoVer, memberVer := c.db.versions()
	if topoVer == c.topoVer && memberVer == c.memberVer {
		return false
	}
	if topoVer != c.topoVer {
		c.drv.SetGraph(c.db.buildGraph())
		clear(c.budgets)
	}
	c.topoVer, c.memberVer = topoVer, memberVer
	n := c.drv.Graph().N()
	current := make(map[algo1.PairKey]bool)
	for _, m := range c.db.members() {
		if m.sub < 0 || int(m.sub) >= n {
			continue // subscriber not in the gossiped topology yet
		}
		dl := m.deadline
		if dl <= 0 {
			dl = c.b.cfg.DefaultDeadline
		}
		budget := c.budgets[dl]
		if len(budget) != n {
			budget = make([]time.Duration, n)
			for i := range budget {
				budget[i] = dl
			}
			c.budgets[dl] = budget
		}
		key := algo1.PairKey{Topic: m.topic, Sub: m.sub}
		c.drv.SetPair(key, int(m.sub), budget)
		current[key] = true
	}
	var gone []algo1.PairKey
	c.drv.Pairs(func(key algo1.PairKey, _ *algo1.Table) {
		if !current[key] {
			gone = append(gone, key)
		}
	})
	for _, key := range gone {
		c.drv.RemovePair(key)
	}
	return true
}

// publish swaps in a fresh copy-on-write snapshot of this broker's own
// sending lists and <d, r> (Lists[self] and Params[self] of each pair's
// table) and of every topic's subscriber brokers the gossiped graph
// reaches, or stopped reaching less than ctrlLostGrace intervals ago.
func (c *ctrlPlane) publish(now time.Time) {
	self := c.b.cfg.ID
	reach := c.db.reachable(int32(self))
	grace := ctrlLostGrace * c.b.cfg.LinkStateInterval
	lost := make(map[int32]time.Time)
	c.lostHeld = false
	snap := &ctrlSnapshot{lists: make(map[routeKey][]int), destsByTopic: make(map[int32][]int)}
	c.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) {
		dest := false
		if key.Sub != int32(self) {
			if reach[key.Sub] {
				dest = true
			} else {
				at, ok := c.lostAt[key.Sub]
				if !ok {
					at = now
				}
				lost[key.Sub] = at
				dest = now.Sub(at) < grace
				c.lostHeld = c.lostHeld || dest
			}
		}
		if dest {
			snap.destsByTopic[key.Topic] = append(snap.destsByTopic[key.Topic], int(key.Sub))
		}
		if t == nil || self >= len(t.Lists) {
			return
		}
		l := t.Lists[self]
		if len(l) > 0 {
			snap.lists[routeKey{topic: key.Topic, sub: key.Sub}] = l
		}
		own := t.Params[self]
		snap.routes = append(snap.routes, wire.RouteStat{
			Topic: key.Topic, Sub: key.Sub, D: own.D, R: own.R, ListLen: int32(len(l)),
		})
	})
	for _, dests := range snap.destsByTopic {
		sort.Ints(dests)
	}
	slices.SortFunc(snap.routes, func(a, b wire.RouteStat) int {
		return cmp.Or(cmp.Compare(a.Topic, b.Topic), cmp.Compare(a.Sub, b.Sub))
	})
	c.lostAt = lost
	c.b.ctrlSnap.Store(snap)
}

// ctrlStats snapshots the control plane for Stats and wire.StatsReply.
func (b *Broker) ctrlStats() (wire.CtrlStat, []wire.LinkStat) {
	c := b.ctrl
	return wire.CtrlStat{
		Epoch:          c.epochA.Load(),
		Version:        c.versionA.Load(),
		Rebuilds:       c.rebuildsA.Load(),
		Noops:          c.noopsA.Load(),
		TablesBuilt:    c.tablesA.Load(),
		LinkStatesSent: c.sent.Load(),
		LinkStatesRecv: c.recv.Load(),
		StaleDrops:     c.stale.Load(),
		ProbesSent:     c.probes.Load(),
		ProbeReplies:   c.probeReplies.Load(),
	}, c.db.linkStats()
}
