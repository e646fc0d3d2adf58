package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// edge_fanout: one in-memory broker, one Session holding 20k stable
// subscribers striped over 16 topics plus a churning ID range, and one
// publisher Client sending 128 B payloads.
const (
	edgePayload = 128
	edgeStable  = 20000 // stable subscriber IDs [0, edgeStable)
	edgeTopics  = 16
	edgeChurnN  = 512  // churn IDs [edgeStable, edgeStable+edgeChurnN)
	edgeChurnHz = 2000 // churn operations per second
	edgeWindow  = 16   // closed-loop publishes in flight
	// edgeRate is the open-loop publish rate: about a third of the
	// saturating closed loop's on the reference machine (2 vCPU), fixed
	// so that a change never alters its own load.
	edgeRate = 11000
	// edgeSeqPerSec sizes the per-message state: publishes per second of
	// run the arrays hold, above the saturating rate.
	edgeSeqPerSec = 60000
	churnTick     = 5 * time.Millisecond
)

// sums identifies a multiset of subscriber IDs: its size and the sum of a
// 64-bit mix of each ID, so a missing, repeated or substituted ID changes
// it (a collision needs a 2^-64 coincidence).
type sums struct {
	count uint32
	hash  uint64
}

func (s *sums) add(id uint32) {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	s.count++
	s.hash += x ^ x>>31
}

type edgeEnv struct {
	*loopEnv
	b       *broker.Broker
	pub     *broker.Client
	sess    *broker.Session
	gen     *payloadGen
	buf     []byte
	topicOf []int32 // stable subscriber ID -> topic
	order   []int32 // publish topic order, indexed by seq % edgeTopics
	want    map[int32]sums

	// Handler-owned (session read goroutine) until the session closes.
	got      []sums
	complete []bool
	bad      uint64
	churnGot uint64
	frames   atomic.Uint64
	probed   chan uint64 // sequence numbers as they complete, while there is room

	// Churn-goroutine-owned until the churn stops.
	churnTopic []int32
	churnOn    []bool
	churnLive  int
	churnNext  int
	churnErrs  uint64
	churnOps   atomic.Uint64
	settleOn   atomic.Bool // time churn Flushes (the traced pass only)
	settle     []float64   // ns from a churn Flush until the gauge shows it

	checkFrom uint64 // first sequence number after the set-up probes
}

func newEdgeEnv(cfg runConfig) *edgeEnv {
	r := rand.New(rand.NewPCG(cfg.seed, 0xed9e))
	seqCap := edgeSeqPerSec * int(cfg.seconds.Seconds()+2)
	e := &edgeEnv{
		loopEnv:    newLoopEnv(edgeWindow, edgeRate*int(cfg.seconds.Seconds()+1), seqCap),
		gen:        newPayloadGen(cfg.seed, edgePayload),
		buf:        make([]byte, edgePayload),
		topicOf:    make([]int32, edgeStable),
		want:       make(map[int32]sums),
		probed:     make(chan uint64, 4*edgeTopics),
		churnTopic: make([]int32, edgeChurnN),
		churnOn:    make([]bool, edgeChurnN),
	}
	e.got = arenaSlice[sums](&e.mem, seqCap)
	e.complete = arenaSlice[bool](&e.mem, seqCap)
	for _, t := range r.Perm(edgeTopics) {
		e.order = append(e.order, int32(t)+1)
	}
	for j, id := range r.Perm(edgeStable) {
		t := e.order[j%edgeTopics]
		e.topicOf[id] = t
		w := e.want[t]
		w.add(uint32(id))
		e.want[t] = w
	}
	for i := range e.churnTopic {
		e.churnTopic[i] = e.order[r.IntN(edgeTopics)]
	}
	e.perPub = func(seq uint64) uint64 { return uint64(e.want[e.topicFor(seq)].count) }
	e.publish = func(seq uint64) error {
		e.gen.fill(e.buf, seq)
		return e.pub.Publish(e.topicFor(seq), qosDeadline, e.buf)
	}
	return e
}

func (e *edgeEnv) topicFor(seq uint64) int32 { return e.order[seq%edgeTopics] }

// handle runs on the session's read goroutine for every MuxDeliver.
func (e *edgeEnv) handle(m *wire.MuxDeliver) {
	at := e.now()
	e.frames.Add(1)
	seq, ok := e.gen.check(m.Payload)
	if !ok || seq >= uint64(len(e.got)) || m.Topic != e.topicFor(seq) {
		e.bad++
		return
	}
	st := &e.got[seq]
	var n uint64
	for _, id := range m.SubIDs {
		switch {
		case id >= edgeStable:
			e.churnGot++
		case e.topicOf[id] != m.Topic:
			e.bad++
		default:
			st.add(id)
			n++
		}
	}
	e.delivered.Add(n)
	if !e.complete[seq] && st.count >= e.want[m.Topic].count {
		e.complete[seq] = true
		e.completed(seq, at)
		select {
		case e.probed <- seq:
		default: // nobody is probing; the buffer filled long ago
		}
	}
}

// setupEdge boots the broker, registers the stable subscribers and returns
// once every topic has delivered to all of them, with the set-up time and
// the registration part of it.
func setupEdge(cfg runConfig, tk *Track, parent uint64) (*edgeEnv, time.Duration, time.Duration, error) {
	e := newEdgeEnv(cfg) // the benchmark's own bookkeeping, not timed
	t0 := time.Now()
	bs, err := bootBrokers(1, nil, nil, tk, parent)
	if err != nil {
		return nil, 0, 0, err
	}
	e.b = bs[0]
	sp := tk.Begin("session.dial", parent)
	e.sess, err = broker.DialSession(e.b.Addr(), "perfbench-session", edgeStable+edgeChurnN, e.handle)
	tk.End(sp)
	if err != nil {
		e.teardown()
		return nil, 0, 0, err
	}
	r0 := time.Now()
	reg := tk.Begin("session.register", parent)
	sp = tk.Begin("session.subscribe", reg)
	for id := uint32(0); id < edgeStable && err == nil; id++ {
		err = e.sess.Subscribe(id, e.topicOf[id], qosDeadline)
	}
	tk.End(sp)
	if err == nil {
		sp = tk.Begin("session.flush", reg)
		err = e.sess.Flush()
		tk.End(sp)
	}
	if err == nil {
		sp = tk.Begin("broker.stats_gauge_wait", reg)
		err = waitGauge(e.b, edgeStable, 30*time.Second)
		tk.End(sp)
	}
	tk.End(reg)
	register := time.Since(r0)
	if err == nil {
		sp = tk.Begin("client.dial", parent)
		e.pub, err = broker.Dial(e.b.Addr(), "perfbench-pub")
		tk.End(sp)
	}
	if err == nil {
		sp = tk.Begin("client.first_delivery", parent)
		err = e.probeAllTopics()
		tk.End(sp)
	}
	if err != nil {
		e.teardown()
		return nil, 0, 0, err
	}
	return e, time.Since(t0), register, nil
}

// waitGauge polls the broker's subscription gauge until it reads want. It
// sleeps in preciseSleep: time.Sleep would add up to a millisecond of timer
// slack to set-up time and to every settle sample.
func waitGauge(b *broker.Broker, want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for b.Stats().Subscriptions != uint64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("subscription gauge reads %d, want %d after %v", b.Stats().Subscriptions, want, limit)
		}
		preciseSleep(50 * time.Microsecond)
	}
	return nil
}

// probeAllTopics publishes one message at a time until edgeTopics
// consecutive ones (one per topic) reached every stable subscriber. A probe
// that reaches only part of its topic — the ledger snapshot was not yet
// published — is skipped and excluded from the check.
func (e *edgeEnv) probeAllTopics() error {
	deadline := time.Now().Add(10 * time.Second)
	for run := 0; run < edgeTopics; {
		if time.Now().After(deadline) {
			return fmt.Errorf("ledger never covered every topic")
		}
		seq := e.nextSeq
		e.send(seq)
		e.nextSeq++
		if e.awaitProbe(seq, 50*time.Millisecond) {
			run++
			continue
		}
		e.skipped++
		run = 0
	}
	e.checkFrom = e.nextSeq
	return nil
}

// awaitProbe waits until the handler reports seq complete, up to limit.
func (e *edgeEnv) awaitProbe(seq uint64, limit time.Duration) bool {
	t := time.NewTimer(limit)
	defer t.Stop()
	for {
		select {
		case s := <-e.probed:
			if s == seq {
				return true
			}
		case <-t.C:
			return false
		}
	}
}

// churn subscribes and unsubscribes churn-range IDs at edgeChurnHz until
// stop closes. While settleOn is set it also times every tenth Flush until
// the broker's gauge reflects it.
func (e *edgeEnv) churn(stop <-chan struct{}) {
	per := int(edgeChurnHz * churnTick / time.Second)
	t := time.NewTicker(churnTick)
	defer t.Stop()
	for tick := 0; ; tick++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for k := 0; k < per; k++ {
			i := e.churnNext
			e.churnNext = (i + 1) % edgeChurnN
			id := uint32(edgeStable + i)
			var err error
			if e.churnOn[i] {
				err = e.sess.Unsubscribe(id, e.churnTopic[i])
				e.churnLive--
			} else {
				err = e.sess.Subscribe(id, e.churnTopic[i], qosDeadline)
				e.churnLive++
			}
			e.churnOn[i] = !e.churnOn[i]
			if err != nil {
				e.churnErrs++
			}
		}
		t0 := time.Now()
		if err := e.sess.Flush(); err != nil {
			e.churnErrs++
		}
		e.churnOps.Add(uint64(per))
		if tick%10 == 0 && e.settleOn.Load() {
			if waitGauge(e.b, edgeStable+e.churnLive, time.Second) == nil {
				e.settle = append(e.settle, float64(time.Since(t0)))
			}
		}
	}
}

// stopReceiver closes the session and waits for its read goroutine, after
// which handler-owned state may be read.
func (e *edgeEnv) stopReceiver() {
	if e.sess != nil {
		_ = e.sess.Close()
		e.sess = nil
	}
}

// teardown closes the clients and the broker and frees the per-message
// arrays; it may be called more than once.
func (e *edgeEnv) teardown() {
	if e.pub != nil {
		_ = e.pub.Close()
		e.pub = nil
	}
	e.stopReceiver()
	if e.b != nil {
		_ = e.b.Close()
		e.b = nil
	}
	e.mem.free()
}

// check compares, for every publish after the set-up probes, the stable
// subscriber IDs that received it with its topic's stable set.
func (e *edgeEnv) check() (attempted, failed uint64, problems []string) {
	var missing, extra, wrong uint64
	for seq := e.checkFrom; seq < e.nextSeq; seq++ {
		w, g := e.want[e.topicFor(seq)], e.got[seq]
		attempted += uint64(w.count)
		switch {
		case g.count < w.count:
			missing += uint64(w.count - g.count)
		case g.count > w.count:
			extra += uint64(g.count - w.count)
		case g != w:
			wrong += 2 // one ID missing and another repeated, at least
		}
	}
	failed = missing + extra + wrong + e.bad + e.pubErrs + e.churnErrs
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("edge: %d missing, %d extra, %d wrong-ID deliveries, %d malformed, %d publish errors, %d churn errors",
			missing, extra, wrong, e.bad, e.pubErrs, e.churnErrs))
	}
	return attempted, failed, problems
}

func runEdge(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	tr := cfg.tracer
	tk := tr.Track()
	root := tk.Begin("perfbench.edge_fanout", 0)
	defer tk.End(root)

	var env *edgeEnv
	var setups, registers []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts without the previous one's garbage
		sp := tk.Begin("perfbench.setup", root)
		e, d, reg, err := setupEdge(cfg, tk, sp)
		tk.End(sp)
		if err != nil {
			return nil, fmt.Errorf("edge_fanout set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		registers = append(registers, reg.Seconds())
		if rep < setupReps-1 {
			e.teardown()
		} else {
			env = e
		}
	}
	defer env.teardown()
	out.e2e["setup_s"] = median(setups)
	brokers := []*broker.Broker{env.b}
	base := sumStats(brokers)

	stopChurn := make(chan struct{})
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() { defer churnWg.Done(); env.churn(stopChurn) }()
	stopChurnOnce := sync.OnceFunc(func() { close(stopChurn); churnWg.Wait() })
	defer stopChurnOnce()

	if _, err := env.closedLoop(warmUp, nil, 0); err != nil {
		return nil, fmt.Errorf("edge_fanout warm-up: %w", err)
	}
	// An untraced run measures one pass. A traced run puts an untraced pass
	// on each side of its traced one, so trace.overhead_pct compares passes
	// that ran as warm, on average, as the traced pass did. Settle timing and
	// the shard sampler run only in the traced pass.
	modes := []bool{false}
	if tr != nil {
		modes = []bool{false, true, false}
	}
	satDur := cfg.seconds * 55 / 100 / time.Duration(len(modes))
	olDur := cfg.seconds * 35 / 100 / time.Duration(len(modes))
	var untracedSum, tracedRate float64
	for pass, traced := range modes {
		ptk, pparent := (*Track)(nil), uint64(0)
		var shards *shardSampler
		if traced {
			ptk, pparent = tk, root
			shards = startShardSampler(env.pub)
			defer shards.Stop() // idempotent; ends the sampler on error returns
			env.settleOn.Store(true)
		}
		before := sumStats(brokers)
		frames0, expected0, delivered0 := env.frames.Load(), env.expected, env.delivered.Load()
		churn0, churnAt := env.churnOps.Load(), time.Now()
		sp := ptk.Begin("perfbench.saturate", pparent)
		sat, err := env.closedLoop(satDur, ptk, sp)
		ptk.End(sp)
		var ol openResult
		if err == nil {
			sp = ptk.Begin("perfbench.open_loop", pparent)
			ol, err = env.openLoop(olDur, edgeRate, ptk, sp)
			ptk.End(sp)
		}
		env.settleOn.Store(false)
		if err != nil {
			// Deliveries stopped: the system lost messages. Report what
			// was measured; the check counts the losses as failed.
			out.problems = append(out.problems, fmt.Sprintf("edge_fanout pass %d: %v", pass, err))
		}
		bt := before.to(sumStats(brokers))
		rate := fastQuartile(sat.rates, true)
		if !traced {
			untracedSum += rate
		}
		if tr == nil || traced {
			expected := float64(env.expected - expected0)
			delivered := float64(env.delivered.Load() - delivered0)
			frames := float64(env.frames.Load() - frames0)
			out.liveE2E(sat, ol, rate, expected, delivered, float64(bt.forwarded)+frames)
			if traced {
				tracedRate = rate
				depth, skew := shards.Stop()
				out.layer["shard.depth_max"] = depth
				out.layer["shard.processed_skew"] = skew
				out.liveLayers(sat, ol, bt)
				out.layer["session.subids_per_frame"] = ratio(delivered, frames)
				out.layer["edge.churn_ops_per_s"] = float64(env.churnOps.Load()-churn0) / time.Since(churnAt).Seconds()
			}
		}
		if err != nil {
			break
		}
	}
	stopChurnOnce()
	total := base.to(sumStats(brokers))
	env.stopReceiver()
	attempted, failed, problems := env.check()
	failed += total.queueDrops + total.dropped
	if total.queueDrops+total.dropped > 0 {
		problems = append(problems, fmt.Sprintf("edge: %d queue drops, %d dropped destinations", total.queueDrops, total.dropped))
	}
	out.attempted, out.failed = attempted, failed
	out.problems = append(out.problems, problems...)
	out.detail["published"] = env.nextSeq
	out.detail["setups_s"] = setups
	out.detail["setup_probes_skipped"] = env.skipped
	out.detail["churn_deliveries"] = env.churnGot
	if tr == nil {
		return out, nil
	}
	untraced := untracedSum / float64(len(modes)-1)
	out.layer["trace.overhead_pct"] = 100 * ratio(untraced-tracedRate, untraced)
	out.layer["session.register_s"] = median(registers)
	out.layer["edge.ledger_settle_ms"] = median(env.settle) / 1e6
	frames := env.edgeFrames()
	env.teardown() // the probes run with the edge broker gone
	if err := liveProbes(cfg, out, frames, tk, root); err != nil {
		return nil, err
	}
	return out, nil
}

// liveE2E fills the end-to-end metrics of the measured pass.
func (o *outcome) liveE2E(sat phaseResult, ol openResult, rate, expected, delivered, packets float64) {
	o.e2e["deliveries_per_s"] = rate
	o.e2e["cpu_ns_per_delivery"] = median(sat.cpuPer)
	o.latency(ol.lat, "wall clock from due time")
	var onTime int
	for _, l := range ol.lat {
		if time.Duration(l) <= qosDeadline {
			onTime++
		}
	}
	o.e2e["qos_ratio"] = ratio(float64(onTime), float64(ol.end-ol.first))
	o.e2e["delivery_ratio"] = ratio(delivered, expected)
	o.e2e["packets_per_sub"] = ratio(packets, delivered)
	o.detail["saturate_s"] = sat.elapsed.Seconds()
	o.detail["saturate_windows"] = len(sat.rates)
	o.detail["saturate_rates"] = sat.rates
	o.detail["saturate_cpu_ns"] = sat.cpuPer
	o.detail["open_loop_messages"] = ol.end - ol.first
}

// liveLayers fills the per-layer metrics the traced pass measures from
// broker counters and process samples.
func (o *outcome) liveLayers(sat phaseResult, ol openResult, bt brokerTotals) {
	o.layer["conn.queue_drops"] = float64(bt.queueDrops)
	o.layer["proc.cpu_util"] = ratio(float64(sat.proc.cpu), float64(sat.proc.wall))
	o.layer["proc.allocs_per_delivery"] = ratio(float64(sat.proc.mallocs), float64(sat.delivered))
	o.layer["proc.gc_pause_ms"] = ms(sat.proc.gcPause)
	o.layer["gen.late_ms_p99"] = percentile(sortedCopy(ol.late), 99) / 1e6
}
