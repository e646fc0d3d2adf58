package broker

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// newRelayChain builds a line overlay 0 — 1 — … — n-1 on localhost.
func newRelayChain(tb testing.TB, n int) []*Broker {
	tb.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	brokers := make([]*Broker, 0, n)
	for i := 0; i < n; i++ {
		neighbors := make(map[int]string)
		if i > 0 {
			neighbors[i-1] = addrs[i-1]
		}
		if i < n-1 {
			neighbors[i+1] = addrs[i+1]
		}
		cfg := Config{
			ID:              i,
			Listen:          addrs[i],
			Neighbors:       neighbors,
			PingInterval:    50 * time.Millisecond,
			AdvertInterval:  50 * time.Millisecond,
			DialRetry:       20 * time.Millisecond,
			AckGuard:        40 * time.Millisecond,
			DefaultDeadline: 5 * time.Second,
			Shards:          4,
		}
		b, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := b.StartListener(listeners[i]); err != nil {
			tb.Fatal(err)
		}
		brokers = append(brokers, b)
	}
	tb.Cleanup(func() {
		for _, b := range brokers {
			_ = b.Close()
		}
	})
	return brokers
}

// waitForRoute blocks until broker b has a sending list toward subscriber
// broker sub for topic.
func waitForRoute(tb testing.TB, b *Broker, topic int32, sub int32) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := len(ctrlList(b, topic, sub)) > 0
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("no route to (%d, %d)", topic, sub)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkRelayChain measures what relay-plane link aggregation exists to
// optimize: the per-packet wire cost of pushing a published stream across a
// 3-broker chain 0 → 1 → 2 to a subscriber on the far end. Consecutive DATA
// frames per neighbor coalesce into delta-compressed DATA_BATCH frames and
// hop-by-hop ACKs return as coalesced ACK_BATCH frames.
//
// frames/packet and bytes/packet are writer-path egress summed across all
// three brokers, the subscriber-facing MuxDeliver frames included.
func BenchmarkRelayChain(b *testing.B) {
	b.Run("batch", benchRelayChain)
}

func benchRelayChain(b *testing.B) {
	const topic = int32(3)
	brokers := newRelayChain(b, 3)
	last := brokers[len(brokers)-1]

	// One-subscriber session on the far end, counting deliveries straight
	// off the socket so the benchmark can wait for exact totals.
	var got atomic.Uint64
	conn, err := net.DialTimeout("tcp", last.cfg.Listen, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Hello{BrokerID: -1, Name: "chain-sub"}); err != nil {
		b.Fatal(err)
	}
	if err := wire.Write(conn, &wire.SessionSub{Topic: topic, Deadline: 5 * time.Second}); err != nil {
		b.Fatal(err)
	}
	go func() {
		rd := wire.NewReader(bufio.NewReaderSize(conn, readBufSize))
		for {
			msg, err := rd.Next()
			if err != nil {
				return
			}
			if m, ok := msg.(*wire.MuxDeliver); ok {
				got.Add(uint64(len(m.SubIDs)))
			}
		}
	}()
	waitForRoute(b, brokers[0], topic, int32(last.cfg.ID))

	pub, err := Dial(brokers[0].cfg.Listen, "chain-pub")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	payload := make([]byte, 64)
	// Keep enough packets in flight that writer wakeups see several queued
	// DATA frames (that concurrency is what batching coalesces), but well
	// under the per-connection send queues so nothing is dropped and the
	// exact delivery accounting below holds.
	const maxInflight = 256
	b.ReportAllocs()
	b.ResetTimer()
	var frames0, bytes0 uint64
	for _, bk := range brokers {
		frames0 += bk.wireFrames.Load()
		bytes0 += bk.wireBytes.Load()
	}
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(topic, 5*time.Second, payload); err != nil {
			b.Fatal(err)
		}
		for uint64(i+1)-got.Load() > maxInflight {
			time.Sleep(50 * time.Microsecond)
		}
	}
	want := uint64(b.N)
	doneBy := time.Now().Add(30 * time.Second)
	for got.Load() < want {
		if time.Now().After(doneBy) {
			b.Fatalf("received %d/%d deliveries", got.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	var frames, bytes uint64
	for _, bk := range brokers {
		frames += bk.wireFrames.Load()
		bytes += bk.wireBytes.Load()
	}
	frames -= frames0
	bytes -= bytes0
	b.ReportMetric(float64(bytes)/float64(want), "bytes/packet")
	b.ReportMetric(float64(frames)/float64(want), "frames/packet")
	b.ReportMetric(float64(want)/elapsed.Seconds(), "packets/sec")
}

// TestRelayChainBatchGain pins the aggregation gain outside the benchmark
// harness. The bounds are the recorded reference for one frame per DATA and
// per ACK on this chain (5.00 frames and 377 bytes per delivered packet)
// divided by the gains the batch framing was accepted with: at least 2x
// fewer frames and 1.1x fewer bytes.
func TestRelayChainBatchGain(t *testing.T) {
	res := testing.Benchmark(benchRelayChain)
	bytesPer, framesPer := res.Extra["bytes/packet"], res.Extra["frames/packet"]
	t.Logf("%.1f bytes/packet, %.2f frames/packet", bytesPer, framesPer)
	if bytesPer <= 0 || framesPer <= 0 {
		t.Fatalf("relay chain reported no wire traffic")
	}
	if framesPer > 2.5 {
		t.Errorf("frames/packet = %.2f, want <= 2.5 (5.00 / 2)", framesPer)
	}
	if bytesPer > 343 {
		t.Errorf("bytes/packet = %.1f, want <= 343 (377 / 1.1)", bytesPer)
	}
}

// TestMuxDeliverPooledDeliveryAllocs pins the delivery hot path: pushing
// one packet, carried by value, to a multiplexed session allocates nothing
// in steady state — the MuxDeliver comes from the writer-path pool and goes
// back after the writer (drained by hand here, no goroutine) encodes it.
func TestMuxDeliverPooledDeliveryAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bk, err := New(Config{ID: 1, Listen: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	if err := bk.StartListener(ln); err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	c := &clientConn{name: "sess", conn: server, w: newConnWriter(server, 8, nil)}
	led := &topicLedger{sessions: []sessionDelivery{{c: c, subIDs: []uint32{1, 2, 3}}}}
	msg := wire.Deliver{
		Topic: 1, PacketID: 42, Source: 1,
		PublishedAt: time.Unix(0, 123456789),
		Payload:     []byte("pooled payload"),
	}
	deliverOnce := func() {
		bk.deliver(led, msg)
		releaseMsg(<-c.w.queue)
	}
	deliverOnce() // warm the pool
	if allocs := testing.AllocsPerRun(200, deliverOnce); allocs != 0 {
		t.Errorf("session delivery allocates %.1f objects/packet in steady state, want 0", allocs)
	}
}
