package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// The relay probe: a chain 0—1—2 of brokers, a publisher Client on broker
// 0 and a subscriber Client on broker 2, one topic, 256 B payloads, driven
// by a saturating closed loop. It runs in every traced run, once with
// in-memory custody and once with every broker journaling custody to a WAL.
const (
	relayPayload = 256
	relayWindow  = 64 // closed-loop in-flight messages
	// relayProbeDur is each chain's closed loop.
	relayProbeDur = 3 * time.Second
	// relaySeqPerSec sizes the per-message state: messages per second the
	// arrays hold, above the saturating rate.
	relaySeqPerSec = 100000
)

type relayEnv struct {
	*loopEnv
	brokers  []*broker.Broker
	pub, sub *broker.Client
	topic    int32
	gen      *payloadGen
	dir      string
	buf      []byte

	seen     []uint8 // deliveries per sequence number (receiver-owned)
	bad      uint64  // malformed or out-of-range deliveries (receiver-owned)
	recvDone chan struct{}
}

func relayTopic(seed uint64) int32 { return int32(seed%1000) + 1 }

// setupRelay boots the chain and both clients and returns once a message
// published on broker 0 has reached the subscriber on broker 2. With
// durable set every broker journals custody to a WAL under the work
// directory.
func setupRelay(cfg runConfig, name string, durable bool, tk *Track, parent uint64) (*relayEnv, error) {
	seqCap := relaySeqPerSec * int(relayProbeDur.Seconds()+2)
	e := &relayEnv{
		loopEnv: newLoopEnv(relayWindow, 0, seqCap),
		topic:   relayTopic(cfg.seed),
		gen:     newPayloadGen(cfg.seed, relayPayload),
		dir:     filepath.Join(cfg.workDir, name),
		buf:     make([]byte, relayPayload),
	}
	e.seen = arenaSlice[uint8](&e.mem, seqCap)
	e.perPub = func(uint64) uint64 { return 1 }
	e.publish = func(seq uint64) error {
		e.gen.fill(e.buf, seq)
		return e.pub.Publish(e.topic, qosDeadline, e.buf)
	}
	var dirs []string
	if durable {
		dirs = []string{filepath.Join(e.dir, "b0"), filepath.Join(e.dir, "b1"), filepath.Join(e.dir, "b2")}
	}
	var err error
	if e.brokers, err = bootBrokers(3, [][2]int{{0, 1}, {1, 2}}, dirs, tk, parent); err != nil {
		return nil, err
	}
	sp := tk.Begin("client.dial", parent)
	e.sub, err = broker.Dial(e.brokers[2].Addr(), "perfbench-sub")
	tk.End(sp)
	if err != nil {
		e.teardown()
		return nil, err
	}
	e.recvDone = make(chan struct{})
	go e.receive()
	sp = tk.Begin("client.subscribe", parent)
	err = e.sub.Subscribe(e.topic, qosDeadline)
	tk.End(sp)
	if err == nil {
		sp = tk.Begin("client.dial", parent)
		e.pub, err = broker.Dial(e.brokers[0].Addr(), "perfbench-pub")
		tk.End(sp)
	}
	if err == nil {
		sp = tk.Begin("client.route_wait", parent)
		err = e.waitRoute()
		tk.End(sp)
	}
	if err == nil {
		sp = tk.Begin("client.first_delivery", parent)
		e.send(e.nextSeq)
		e.nextSeq++
		err = e.drain()
		tk.End(sp)
	}
	if err != nil {
		e.teardown()
		return nil, err
	}
	return e, nil
}

// waitRoute polls broker 0's stats until it holds a sending list toward
// broker 2 for the topic.
func (e *relayEnv) waitRoute() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := e.pub.Stats(time.Second)
		if err != nil {
			return err
		}
		for _, rt := range r.Routes {
			if rt.Topic == e.topic && rt.Sub == 2 && rt.ListLen > 0 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no route from broker 0 to broker 2 after 10s")
}

// receive is the subscriber's goroutine: it checks each delivery's
// checksum and counts it against its sequence number.
func (e *relayEnv) receive() {
	defer close(e.recvDone)
	for d := range e.sub.Receive() {
		at := e.now()
		seq, ok := e.gen.check(d.Payload)
		if !ok || seq >= uint64(len(e.seen)) || d.Topic != e.topic {
			e.bad++
			continue
		}
		if e.seen[seq] < 255 {
			e.seen[seq]++
		}
		e.delivered.Add(1)
		e.completed(seq, at)
	}
}

// stopReceiver closes the subscriber and waits for its goroutine, after
// which the receiver-owned counters may be read.
func (e *relayEnv) stopReceiver() {
	if e.sub != nil {
		_ = e.sub.Close()
		<-e.recvDone
		e.sub = nil
	}
}

// teardown closes clients and brokers, removes any WAL directories and
// frees the per-message arrays.
func (e *relayEnv) teardown() {
	if e.pub != nil {
		_ = e.pub.Close()
	}
	e.stopReceiver()
	closeBrokers(e.brokers)
	_ = os.RemoveAll(e.dir)
	e.mem.free()
}

// check counts, over every message published, those not delivered exactly
// once, plus malformed deliveries and publish errors.
func (e *relayEnv) check() (attempted, failed uint64, problems []string) {
	var missing, dup uint64
	for _, n := range e.seen[:e.nextSeq] {
		switch {
		case n == 0:
			missing++
		case n > 1:
			dup += uint64(n - 1)
		}
	}
	failed = missing + dup + e.bad + e.pubErrs
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("relay: %d missing, %d duplicate, %d malformed deliveries, %d publish errors", missing, dup, e.bad, e.pubErrs))
	}
	return e.nextSeq, failed, problems
}

// relayProbe measures the relay, control-plane and WAL layers: a closed
// loop over the chain with in-memory custody, then over one whose brokers
// journal custody and ACK only after fsync. Both are checked for
// exactly-once delivery, and the chain's frames are added to frames for
// the wire probe. Their figures are per-layer metrics without a bound: on
// the reference VM the chain's throughput settles run by run into faster or
// slower batching regimes, its brokers' GC cycles decide its tail, and the
// WAL waits on a shared virtual disk.
func relayProbe(cfg runConfig, out *outcome, frames map[string]wire.Message, tk *Track, parent uint64) error {
	for _, durable := range []bool{false, true} {
		name := "relay-memory"
		if durable {
			name = "relay-durable"
		}
		sp := tk.Begin("perfbench."+name, parent)
		err := relayPass(cfg, out, frames, name, durable, tk, sp)
		tk.End(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func relayPass(cfg runConfig, out *outcome, frames map[string]wire.Message, name string, durable bool, tk *Track, parent uint64) error {
	env, err := setupRelay(cfg, name, durable, tk, parent)
	if err != nil {
		return err
	}
	defer env.teardown()
	for k, m := range env.relayFrames() {
		frames[k] = m
	}
	before := sumStats(env.brokers)
	sat, err := env.closedLoop(relayProbeDur, nil, 0)
	if err != nil {
		// Deliveries stopped: the check counts the lost messages as failed.
		out.problems = append(out.problems, fmt.Sprintf("%s: %v", name, err))
	}
	bt := before.to(sumStats(env.brokers))
	env.stopReceiver()
	attempted, failed, problems := env.check()
	out.attempted += attempted
	out.failed += failed + bt.queueDrops + bt.dropped
	out.problems = append(out.problems, problems...)
	if bt.queueDrops+bt.dropped > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%s: %d queue drops, %d dropped destinations", name, bt.queueDrops, bt.dropped))
	}
	delivered := float64(sat.delivered)
	if durable {
		out.layer["wal.durable_deliveries_per_s"] = fastQuartile(sat.rates, true)
		out.layer["wal.appends_per_fsync"] = ratio(float64(bt.walAppends), float64(bt.walFsyncs))
		out.layer["wal.bytes_per_delivery"] = ratio(float64(bt.walBytes), delivered)
		return nil
	}
	out.layer["relay.deliveries_per_s"] = fastQuartile(sat.rates, true)
	out.layer["relay.tx_per_delivery"] = ratio(float64(bt.forwarded), delivered)
	out.layer["relay.acks_per_batch"] = ratio(float64(bt.ackCoalesced), float64(bt.ackBatches))
	out.layer["relay.bytes_saved_per_delivery"] = ratio(float64(bt.bytesSaved), delivered)
	out.layer["ctrl.rebuilds"] = float64(bt.ctrlRebuilds)
	out.layer["ctrl.noops"] = float64(bt.ctrlNoops)
	out.layer["ctrl.tables_built"] = float64(bt.ctrlTables)
	return nil
}
