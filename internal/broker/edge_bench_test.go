package broker

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkEdgeFanout measures what the edge tier exists to optimize: the
// wire cost of fanning one published packet out to many local subscribers.
//
//   - persub: 100 subscriber connections of one subscriber each — the
//     broker encodes one MuxDeliver frame (payload included) per subscriber
//     per packet.
//   - mux: the same 100 logical subscribers over 4 multiplexed sessions —
//     one MuxDeliver per (topic, session) carrying the payload once plus
//     the subscriber-ID varint list.
//
// bytes/delivery and frames/delivery come from the broker's writer-path
// egress counters; the aggregated mode must cut both by >= 5x at this
// fan-out (BENCH_baseline.json records the gap).
func BenchmarkEdgeFanout(b *testing.B) {
	for _, mode := range []string{"persub", "mux"} {
		b.Run(mode, func(b *testing.B) {
			benchEdgeFanout(b, mode)
		})
	}
}

func benchEdgeFanout(b *testing.B, mode string) {
	const (
		subscribers = 100
		sessions    = 4
		topic       = int32(2)
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bk, err := New(Config{ID: 1, Listen: ln.Addr().String(), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer bk.Close()
	if err := bk.StartListener(ln); err != nil {
		b.Fatal(err)
	}

	// got counts logical deliveries observed by the subscribers; both modes
	// count without any lossy buffering so the benchmark can wait for
	// exactly b.N * subscribers.
	var got atomic.Uint64
	switch mode {
	case "persub":
		// Raw one-subscriber sessions read with a pooled Reader directly off
		// the socket — no inbox to overflow.
		for i := 0; i < subscribers; i++ {
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if err := wire.Write(conn, &wire.Hello{BrokerID: -1, Name: fmt.Sprintf("sub-%d", i)}); err != nil {
				b.Fatal(err)
			}
			if err := wire.Write(conn, &wire.SessionSub{Topic: topic, Deadline: time.Second}); err != nil {
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
		}
	case "mux":
		perSession := subscribers / sessions
		for s := 0; s < sessions; s++ {
			sess, err := DialSession(ln.Addr().String(), fmt.Sprintf("mux-%d", s), uint32(perSession),
				func(m *wire.MuxDeliver) { got.Add(uint64(len(m.SubIDs))) })
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			for j := 0; j < perSession; j++ {
				if err := sess.Subscribe(uint32(j), topic, time.Second); err != nil {
					b.Fatal(err)
				}
			}
			if err := sess.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	waitDeadline := time.Now().Add(10 * time.Second)
	for bk.localLedger(topic).subscribers() != subscribers {
		if time.Now().After(waitDeadline) {
			b.Fatalf("only %d/%d subscribers registered", bk.localLedger(topic).subscribers(), subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	pub, err := Dial(ln.Addr().String(), "bench-pub")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	payload := make([]byte, 256)
	// Cap in-flight packets well under the per-connection send queue
	// (default 1024): an unpaced publisher overruns the bounded writer
	// queues and the broker — correctly, it's a QoS system — drops the
	// excess, which would make the exact delivery accounting below fail.
	const maxInflight = 256
	b.ReportAllocs()
	b.ResetTimer()
	frames0, bytes0 := bk.wireFrames.Load(), bk.wireBytes.Load()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(topic, time.Second, payload); err != nil {
			b.Fatal(err)
		}
		for uint64(i+1)*subscribers-got.Load() > maxInflight*subscribers {
			time.Sleep(50 * time.Microsecond)
		}
	}
	want := uint64(b.N) * subscribers
	doneBy := time.Now().Add(30 * time.Second)
	for got.Load() < want {
		if time.Now().After(doneBy) {
			b.Fatalf("received %d/%d deliveries (%d queue drops)", got.Load(), want, bk.queueDrops.Load())
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	frames := bk.wireFrames.Load() - frames0
	bytes := bk.wireBytes.Load() - bytes0
	b.ReportMetric(float64(bytes)/float64(want), "bytes/delivery")
	b.ReportMetric(float64(frames)/float64(want), "frames/delivery")
	b.ReportMetric(float64(want)/elapsed.Seconds(), "deliveries/sec")
}

// TestEdgeFanoutAggregationGain pins the tentpole acceptance number outside
// the benchmark harness: at 100 subscribers per topic, the multiplexed
// delivery path must put at least 5x fewer frames AND 5x fewer encoded
// bytes on the wire per delivered message than the per-subscriber path.
func TestEdgeFanoutAggregationGain(t *testing.T) {
	measure := func(mode string) (bytesPer, framesPer float64) {
		res := testing.Benchmark(func(b *testing.B) { benchEdgeFanout(b, mode) })
		return res.Extra["bytes/delivery"], res.Extra["frames/delivery"]
	}
	perBytes, perFrames := measure("persub")
	muxBytes, muxFrames := measure("mux")
	t.Logf("persub: %.1f bytes/delivery, %.3f frames/delivery", perBytes, perFrames)
	t.Logf("mux:    %.1f bytes/delivery, %.3f frames/delivery", muxBytes, muxFrames)
	if muxBytes <= 0 || muxFrames <= 0 {
		t.Fatalf("mux mode reported no wire traffic")
	}
	if gain := perBytes / muxBytes; gain < 5 {
		t.Errorf("bytes/delivery gain = %.1fx, want >= 5x", gain)
	}
	if gain := perFrames / muxFrames; gain < 5 {
		t.Errorf("frames/delivery gain = %.1fx, want >= 5x", gain)
	}
}
