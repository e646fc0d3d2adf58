package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// liveProbes runs the layer probes of edge_fanout's traced run: the relay
// chain, the WAL append, and the wire codec on the frames the edge workload
// and the relay chain send. sim_fig2 sends no frames and reports 0 for
// these layers.
func liveProbes(cfg runConfig, out *outcome, frames map[string]wire.Message, tk *Track, parent uint64) error {
	sp := tk.Begin("perfbench.probes", parent)
	defer tk.End(sp)
	if err := relayProbe(cfg, out, frames, tk, sp); err != nil {
		return fmt.Errorf("relay probe: %w", err)
	}
	if err := walProbe(out, cfg.workDir, tk, sp); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	wireProbe(out, frames, tk, sp)
	return nil
}

// edgeFrames are the frames edge_fanout puts on the wire: the publisher's
// Publish, and the MuxDeliver that carries it to one topic's stable
// subscribers.
func (e *edgeEnv) edgeFrames() map[string]wire.Message {
	payload := make([]byte, edgePayload)
	e.gen.fill(payload, 0)
	topic := e.topicFor(0)
	mux := &wire.MuxDeliver{Topic: topic, PacketID: 1, Source: 0, PublishedAt: time.Now(), Payload: payload}
	for id, t := range e.topicOf {
		if t == topic {
			mux.SubIDs = append(mux.SubIDs, uint32(id))
		}
	}
	return map[string]wire.Message{
		"publish":     &wire.Publish{Topic: topic, Deadline: qosDeadline, Payload: payload},
		"mux_deliver": mux,
	}
}

// relayFrames are the frames of the relay probe's chain: Data as broker 1
// forwards a message to broker 2 (one destination, path 0 then 1), a full
// DataBatch and AckBatch of 64 consecutive frames, and the Deliver to the
// subscriber, all with the chain's 256 B payloads.
func (e *relayEnv) relayFrames() map[string]wire.Message {
	payload := make([]byte, relayPayload)
	e.gen.fill(payload, 0)
	at := time.Now()
	data := func(i uint64) wire.Data {
		return wire.Data{FrameID: 1<<40 | i, PacketID: 1<<40 | i, Topic: e.topic, Source: 0, PublishedAt: at,
			Deadline: qosDeadline, Dests: []int32{2}, Path: []int32{0, 1}, Payload: payload}
	}
	batch := &wire.DataBatch{}
	ack := &wire.AckBatch{}
	for i := uint64(0); i < 64; i++ {
		batch.Frames = append(batch.Frames, data(i))
		ack.FrameIDs = append(ack.FrameIDs, 1<<40|i)
	}
	d := data(0)
	return map[string]wire.Message{
		"data":       &d,
		"data_batch": batch,
		"ack_batch":  ack,
		"deliver":    &wire.Deliver{Topic: e.topic, PacketID: 1 << 40, Source: 0, PublishedAt: at, Payload: payload},
	}
}

// probeRounds and probeIters size each codec measurement: the median of
// probeRounds timings of probeIters operations.
const (
	probeRounds = 5
	probeIters  = 2000
)

// wireProbe times encode and decode of each of frames. Deliver decodes
// through the allocating wire.Read, as Client does; the rest through the
// pooled Reader, as brokers and Session do.
func wireProbe(out *outcome, frames map[string]wire.Message, tk *Track, parent uint64) {
	for name, msg := range frames {
		sp := tk.Begin("wire.probe."+name, parent)
		frame := wire.AppendFrame(nil, msg)
		buf := make([]byte, 0, 2*len(frame))
		var enc, dec, allocs []float64
		stream := bytes.Repeat(frame, probeIters)
		src := bytes.NewReader(stream)
		rd := wire.NewReader(src)
		decode := func() {
			if name == "deliver" {
				_, _ = wire.Read(src)
			} else {
				_, _ = rd.Next()
			}
		}
		decode() // warm the Reader's buffers
		for round := 0; round < probeRounds; round++ {
			t0 := time.Now()
			for i := 0; i < probeIters; i++ {
				buf = wire.AppendFrame(buf[:0], msg)
			}
			enc = append(enc, float64(time.Since(t0))/probeIters)

			src.Reset(stream)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
			for i := 0; i < probeIters; i++ {
				decode()
			}
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&m1)
			dec = append(dec, float64(elapsed)/probeIters)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/probeIters)
			src.Reset(stream)
		}
		tk.End(sp)
		out.layer["wire.encode_ns."+name] = median(enc)
		out.layer["wire.decode_ns."+name] = median(dec)
		out.layer["wire.decode_allocs."+name] = median(allocs)
	}
}

// walProbeN and walProbeLimit bound the WAL probe: walProbeN appends, or
// as many as fit in walProbeLimit.
const (
	walProbeN     = 1000
	walProbeLimit = 3 * time.Second
)

// walProbe opens a log in the run's work directory and times AppendCustody
// until OnDurable fires, one record at a time, so each sample is one
// group commit including its fsync.
func walProbe(out *outcome, workDir string, tk *Track, parent uint64) error {
	durable := make(chan struct{}, 1) // one record outstanding at a time
	sp := tk.Begin("wal.open", parent)
	l, _, err := wal.Open(wal.Config{
		Dir:       filepath.Join(workDir, "walprobe"),
		NodeID:    1,
		OnDurable: func(uint64, int) { durable <- struct{}{} },
	})
	tk.End(sp)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0x5a}, relayPayload)
	var lat []float64
	start := time.Now()
	for i := uint64(1); i <= walProbeN && time.Since(start) < walProbeLimit; i++ {
		d := wire.Data{FrameID: i, PacketID: i, Topic: 7, Source: 0, PublishedAt: time.Now(),
			Deadline: qosDeadline, Dests: []int32{2}, Path: []int32{0}, Payload: payload}
		sp := tk.Begin("wal.append_durable", parent)
		t0 := time.Now()
		l.AppendCustody(&d, 0)
		<-durable
		lat = append(lat, float64(time.Since(t0)))
		tk.End(sp)
		l.AppendClear(i, nil)
	}
	if err := l.Close(); err != nil {
		return err
	}
	lat = sortedCopy(lat)
	out.layer["wal.append_durable_us_p50"] = percentile(lat, 50) / 1e3
	out.layer["wal.append_durable_us_p99"] = percentile(lat, 99) / 1e3
	tail, _ := tailPercentile(len(lat))
	out.detail["wal_probe_samples"] = len(lat)
	out.detail["wal_probe_tail_percentile"] = tail
	return nil
}
