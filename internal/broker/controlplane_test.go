package broker

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/algo1"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestLinkStateDBStaleEpochReplay pins the database's replay defense:
// per-origin epochs are strictly increasing, so replayed or reordered
// floods are dropped without touching estimates or the change log.
func TestLinkStateDBStaleEpochReplay(t *testing.T) {
	db := newLinkStateDB()
	recs := []wire.LinkRecord{{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9}}
	if newer, changed := db.apply(&wire.LinkState{Origin: 0, Epoch: 5, Links: recs}); !newer || !changed {
		t.Fatalf("first flood: newer=%v changed=%v, want true/true", newer, changed)
	}
	// Same epoch replayed, then an older one: both stale.
	for _, epoch := range []uint64{5, 4} {
		if newer, _ := db.apply(&wire.LinkState{Origin: 0, Epoch: epoch, Links: []wire.LinkRecord{{To: 1, Alpha: time.Hour, Gamma: 0.1}}}); newer {
			t.Fatalf("epoch %d accepted after epoch 5", epoch)
		}
	}
	if a, g, ok := db.LinkEstimate(0, 1); !ok || a != 10*time.Millisecond || g != 0.9 {
		t.Fatalf("estimate = (%v, %v, %v), stale flood leaked through", a, g, ok)
	}
	// A newer epoch with identical records advances the epoch but is not a
	// change — the driver must see a quiet version.
	ver := db.EstimateVersion()
	if newer, changed := db.apply(&wire.LinkState{Origin: 0, Epoch: 6, Links: recs}); !newer || changed {
		t.Fatalf("identical re-flood: newer=%v changed=%v, want true/false", newer, changed)
	}
	if db.EstimateVersion() != ver {
		t.Fatal("identical re-flood bumped the estimate version")
	}
}

// TestLinkStateDBChangeLog pins the delta bookkeeping: the changed-link
// sets handed to the driver are exactly the links each applied flood
// moved, and a driver that fell behind the bounded log gets every known
// link instead (sound over-approximation, never a silent miss).
func TestLinkStateDBChangeLog(t *testing.T) {
	db := newLinkStateDB()
	db.apply(&wire.LinkState{Origin: 0, Epoch: 1, Links: []wire.LinkRecord{
		{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9},
		{To: 2, Alpha: 20 * time.Millisecond, Gamma: 0.8},
	}})
	v1 := db.EstimateVersion()
	// Second flood moves only link 0->2 and withdraws nothing.
	db.apply(&wire.LinkState{Origin: 0, Epoch: 2, Links: []wire.LinkRecord{
		{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9},
		{To: 2, Alpha: 25 * time.Millisecond, Gamma: 0.8},
	}})
	got := db.AppendChangedLinks(v1, db.EstimateVersion(), nil)
	if len(got) != 1 || got[0] != [2]int{0, 2} {
		t.Fatalf("delta = %v, want exactly [[0 2]]", got)
	}
	// A withdrawal (gamma 0) is a change too.
	db.apply(&wire.LinkState{Origin: 0, Epoch: 3, Links: []wire.LinkRecord{{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9}}})
	got = db.AppendChangedLinks(v1, db.EstimateVersion(), nil)
	if len(got) != 2 {
		t.Fatalf("delta after withdrawal = %v, want two links", got)
	}
	// Falling behind the log base returns every known link.
	db.logBase = db.EstimateVersion()
	db.changes = nil
	got = db.AppendChangedLinks(0, db.EstimateVersion(), nil)
	if len(got) != 1 { // only 0->1 survives the withdrawal
		t.Fatalf("overflow fallback = %v, want all known links", got)
	}
}

// simDeps adapts a netsim.Network's monitoring windows to algo1.Deps — the
// same substrate the DES router shell builds tables from.
type simDeps struct {
	net *netsim.Network
	now time.Duration
}

func (s *simDeps) EstimateVersion() uint64 { return s.net.EstimateVersion(s.now) }
func (s *simDeps) AppendChangedLinks(from, to uint64, dst [][2]int) [][2]int {
	return s.net.AppendChangedEstimates(from, to, dst)
}
func (s *simDeps) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	est, ok := s.net.EstimateAt(u, v, s.now)
	if !ok {
		return 0, 0, false
	}
	return est.Alpha, est.Gamma, true
}

// TestControlPlaneDifferential is the sim-vs-live fidelity pin for the
// control plane: the same monitoring estimates, delivered once directly
// (the DES shell's substrate) and once through LinkState gossip into a
// linkStateDB (the live shell's substrate), must drive the shared
// incremental engine to bitwise-identical route tables at every
// monitoring window. The gossip payloads are built exactly as a live
// broker builds them — per-origin record sets under increasing epochs.
func TestControlPlaneDifferential(t *testing.T) {
	for scenario := uint64(0); scenario < 4; scenario++ {
		rng := rand.New(rand.NewPCG(0xC7A1, scenario))
		g, err := topology.RandomRegular(10, 4, topology.DefaultDelayRange(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sim := des.New(1)
		net, err := netsim.New(sim, g, netsim.Config{
			LossRate:        0.05,
			FailureEpoch:    time.Second,
			MonitorInterval: 100 * time.Millisecond,
			MonitorSamples:  40,
		}, 0xD1F+scenario)
		if err != nil {
			t.Fatal(err)
		}

		deps := &simDeps{net: net}
		simDrv := algo1.NewDriver(g, deps, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
		db := newLinkStateDB()
		liveDrv := algo1.NewDriver(g, db, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
		budget := make([]time.Duration, g.N())
		for i := range budget {
			budget[i] = 400 * time.Millisecond
		}
		for p := 0; p < 3; p++ {
			sub := (int(scenario)*3 + p*2) % g.N()
			key := algo1.PairKey{Topic: int32(p), Sub: int32(sub)}
			simDrv.SetPair(key, sub, budget)
			liveDrv.SetPair(key, sub, budget)
		}

		for window := 0; window < 6; window++ {
			deps.now = time.Duration(window) * 100 * time.Millisecond
			// Gossip: every node floods its measured record set for this
			// window, exactly as ctrlPlane.floodLocal renders it.
			for u := 0; u < g.N(); u++ {
				var recs []wire.LinkRecord
				for _, e := range g.Neighbors(u) {
					est, ok := net.EstimateAt(u, e.To, deps.now)
					if !ok {
						continue
					}
					recs = append(recs, wire.LinkRecord{To: int32(e.To), Alpha: est.Alpha, Gamma: est.Gamma})
				}
				db.apply(&wire.LinkState{Origin: int32(u), Epoch: uint64(window) + 1, Links: recs})
			}
			simDrv.Rebuild()
			liveDrv.Rebuild()
			simDrv.Pairs(func(key algo1.PairKey, want *algo1.Table) {
				if want == nil {
					t.Fatalf("scenario %d window %d pair %+v: sim driver built no table", scenario, window, key)
				}
				if got := liveDrv.Table(key); !got.Equal(want) {
					t.Fatalf("scenario %d window %d pair %+v: gossip-fed table diverged from sim table",
						scenario, window, key)
				}
			})
		}
	}
}

// ctrlList reads broker b's current control-plane sending list for
// (topic, sub), nil when none has been published.
func ctrlList(b *Broker, topic, sub int32) []int {
	return b.ctrlSnap.Load().lists[routeKey{topic: topic, sub: sub}]
}

// ctrlDests reads broker b's current publish destination set for topic.
func ctrlDests(b *Broker, topic int32) []int {
	return b.ctrlSnap.Load().destsByTopic[topic]
}

// TestControlPlaneConvergence is the tentpole's live pin: on a diamond
// overlay (0-1, 0-2, 1-3, 2-3) with a subscriber behind broker 3, broker
// 0's gossip-fed sending list for the pair must converge to both
// disjoint routes {1, 2}; killing broker 1 mid-traffic must re-sort it to
// {2} within roughly one monitoring window (the detach kick makes the
// withdrawal flood immediately).
func TestControlPlaneConvergence(t *testing.T) {
	o := newOverlay(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	sub, err := Dial(o.addrs[3], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(7, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "control plane to admit both routes", func() bool {
		l := ctrlList(o.brokers[0], 7, 3)
		return len(l) == 2
	})
	l := ctrlList(o.brokers[0], 7, 3)
	if !((l[0] == 1 && l[1] == 2) || (l[0] == 2 && l[1] == 1)) {
		t.Fatalf("sending list = %v, want {1, 2}", l)
	}
	st := o.brokers[0].Stats()
	if st.Ctrl.LinkStatesRecv == 0 || len(st.Links) == 0 {
		t.Fatalf("control plane idle: %+v", st.Ctrl)
	}

	// Kill broker 1 mid-traffic: its neighbors withdraw their links to it,
	// the floods propagate, and 0's list drops the dead route.
	_ = o.brokers[1].Close()
	waitFor(t, 5*time.Second, "sending list to re-sort around dead broker", func() bool {
		l := ctrlList(o.brokers[0], 7, 3)
		return len(l) == 1 && l[0] == 2
	})

	// The re-sorted route still delivers: publish through broker 0.
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(7, time.Second, []byte("via the survivor")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 3*time.Second); string(d.Payload) != "via the survivor" {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestLinkStateDBMembership pins the membership half of the database: a
// flood's (topic, deadline) records become (topic, origin) members, a
// membership change alone is a change (the receiver must re-sync its
// pairs) while an identical re-flood is not, and reachability follows only
// links their origin still reports.
func TestLinkStateDBMembership(t *testing.T) {
	db := newLinkStateDB()
	link := func(to int32) []wire.LinkRecord {
		return []wire.LinkRecord{{To: to, Alpha: 10 * time.Millisecond, Gamma: 0.9}}
	}
	db.apply(&wire.LinkState{Origin: 0, Epoch: 1, Links: link(1)})
	db.apply(&wire.LinkState{Origin: 1, Epoch: 1, Links: link(0)})
	_, members := db.versions()
	subs := []wire.SubRecord{{Topic: 9, Deadline: time.Second}, {Topic: 4, Deadline: 2 * time.Second}}
	if newer, changed := db.apply(&wire.LinkState{Origin: 1, Epoch: 2, Links: link(0), Subs: subs}); !newer || !changed {
		t.Fatalf("membership-only flood: newer=%v changed=%v, want true/true", newer, changed)
	}
	if _, m := db.versions(); m != members+1 {
		t.Fatalf("member version %d -> %d, want one step", members, m)
	}
	want := []member{{topic: 4, sub: 1, deadline: 2 * time.Second}, {topic: 9, sub: 1, deadline: time.Second}}
	if got := db.members(); !slices.Equal(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	if _, changed := db.apply(&wire.LinkState{Origin: 1, Epoch: 3, Links: link(0), Subs: subs}); changed {
		t.Fatal("identical re-flood reported a change")
	}
	if !db.reachable(0)[1] {
		t.Fatal("broker 1 unreachable over a live link")
	}
	// Broker 0 withdraws its link: 1's lingering records still name 0,
	// but nothing leads from 0 to 1 any more.
	db.apply(&wire.LinkState{Origin: 0, Epoch: 2})
	if db.reachable(0)[1] {
		t.Fatal("broker 1 still reachable after its only inbound link was withdrawn")
	}
}

// TestDestinationGraceForLostMember pins ctrlLostGrace: a member broker
// the gossiped graph stops reaching stays a destination until the grace
// has run out (so a publish during a link reset and redial still names
// it), regains a full grace once reachable again, and drops out after.
// The control loop never ticks (hour-long interval), so the test drives
// its steps with chosen clock values.
func TestDestinationGraceForLostMember(t *testing.T) {
	b, err := New(Config{ID: 0, Listen: "127.0.0.1:0", LinkStateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := b.ctrl
	epoch := uint64(0)
	setLink := func(up bool) {
		epoch++
		ls := &wire.LinkState{Origin: 0, Epoch: epoch}
		if up {
			ls.Links = []wire.LinkRecord{{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9}}
		}
		c.db.apply(ls)
	}
	c.db.apply(&wire.LinkState{Origin: 1, Epoch: 1,
		Links: []wire.LinkRecord{{To: 0, Alpha: 10 * time.Millisecond, Gamma: 0.9}},
		Subs:  []wire.SubRecord{{Topic: 5, Deadline: time.Second}}})
	grace := ctrlLostGrace * b.cfg.LinkStateInterval
	t0 := time.Now()
	dests := func(at time.Duration) []int {
		c.syncPairs()
		c.drv.Rebuild()
		c.publish(t0.Add(at))
		return ctrlDests(b, 5)
	}
	setLink(true)
	if got := dests(0); !slices.Equal(got, []int{1}) {
		t.Fatalf("reachable member: dests = %v, want [1]", got)
	}
	setLink(false)
	if got := dests(time.Minute); !slices.Equal(got, []int{1}) {
		t.Fatalf("member dropped as soon as it became unreachable: dests = %v", got)
	}
	setLink(true)
	if got := dests(2 * time.Minute); !slices.Equal(got, []int{1}) {
		t.Fatalf("member back within the grace: dests = %v, want [1]", got)
	}
	setLink(false)
	lost := 3 * time.Minute
	for _, at := range []time.Duration{lost, lost + grace - time.Nanosecond} {
		if got := dests(at); !slices.Equal(got, []int{1}) {
			t.Fatalf("second outage, %v in: dests = %v, want a full grace", at-lost, got)
		}
	}
	if got := dests(lost + grace); got != nil {
		t.Fatalf("member unreachable for the whole grace: dests = %v, want none", got)
	}
}

// TestControlPlaneMembershipFollowsSubscribers is the live pin for
// membership gossip on a chain 0 - 1 - 2: the publisher's destination set
// at broker 0 follows a subscriber broker that joins, leaves, joins again
// and is killed, each within a few LinkStateIntervals (a kill also waits
// out the ctrlLostGrace a link blip gets), and a publish after the kill
// holds nothing in persistency for the broker the gossiped graph no longer
// reaches.
func TestControlPlaneMembershipFollowsSubscribers(t *testing.T) {
	const topic = int32(11)
	o := newOverlayConfig(t, 3, [][2]int{{0, 1}, {1, 2}}, func(cfg *Config) {
		cfg.Persistent = true
	})
	within := (ctrlLostGrace + 3) * o.brokers[0].cfg.LinkStateInterval
	witness, err := Dial(o.addrs[1], "witness")
	if err != nil {
		t.Fatal(err)
	}
	defer witness.Close()
	if err := witness.Subscribe(topic, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "witness broker in the destination set", func() bool {
		return slices.Equal(ctrlDests(o.brokers[0], topic), []int{1})
	})
	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follow := func(what string, want []int) {
		t.Helper()
		waitFor(t, within, what, func() bool {
			return slices.Equal(ctrlDests(o.brokers[0], topic), want)
		})
	}
	if err := sub.Subscribe(topic, time.Second); err != nil {
		t.Fatal(err)
	}
	follow("broker 2 to join", []int{1, 2})
	if err := sub.Unsubscribe(topic); err != nil {
		t.Fatal(err)
	}
	follow("broker 2 to leave", []int{1})
	if err := sub.Subscribe(topic, time.Second); err != nil {
		t.Fatal(err)
	}
	follow("broker 2 to rejoin", []int{1, 2})
	_ = o.brokers[2].Close()
	follow("killed broker 2 to drop out", []int{1})

	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if err := pub.Publish(topic, time.Second, []byte("after the kill")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		receiveOne(t, witness, 3*time.Second)
	}
	// Persistency would hold a copy for broker 2 until MaxLifetime (30s);
	// with the destination set following the graph there is none to hold.
	waitFor(t, time.Second, "broker 0's in-flight state to drain", func() bool {
		_, flights, _ := o.brokers[0].PoolsLive()
		return flights == 0
	})
	if d := o.brokers[0].Stats().Dropped; d != 0 {
		t.Errorf("broker 0 dropped %d destinations", d)
	}
}
