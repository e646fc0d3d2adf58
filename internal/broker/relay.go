package broker

import (
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// Relay-plane link aggregation, the one relay framing between brokers: the
// engine's decisions are untouched, but the wire gets cheaper in both
// directions.
//
//   - Outbound DATA: the writer pipeline packs consecutive wire.Data
//     messages bound for one neighbor into a single wire.DataBatch frame
//     with delta-compressed headers (see runWriter).
//   - Hop-by-hop ACKs: instead of answering every received DATA with its
//     own frame, the receiver coalesces pending frame IDs per neighbor and
//     flushes them as one AckBatch — when Config.AckBatchSize are pending,
//     when Config.AckFlushInterval expires, or piggybacked on any writer
//     flush that is happening anyway.
//
// Coalescing is safe because custody is frame-level: the flush interval
// sits far inside the sender's ACK timeout (2*alpha + AckGuard), and a
// retransmission triggered by an unlucky flush is absorbed by the
// receiver's frame dedup — delayed ACKs cost at most gamma estimate noise,
// never correctness.

const (
	// dataBatchMaxFrames caps how many Data frames one DataBatch carries;
	// a writer flush emits several batches when more are queued.
	dataBatchMaxFrames = 64
	// legacyAckFrameBytes is the encoded size of one ACK as its own frame
	// (4-byte length + type + 8-byte frame ID) — the RelayBytesSaved
	// reference cost per coalesced ACK.
	legacyAckFrameBytes = 13
)

// legacyDataBytes is the encoded size of d as a standalone Data frame:
// 4-byte length + type byte, 40 bytes of fixed header fields, two 2-byte
// node counts plus 4 bytes per node, 4-byte payload length plus the payload
// — the RelayBytesSaved reference cost per batched DATA.
func legacyDataBytes(d *wire.Data) int {
	return 53 + 4*(len(d.Dests)+len(d.Path)) + len(d.Payload)
}

// queueAck adds one frame ID to the neighbor's pending coalesced ACKs. The
// first pending ACK arms the flush timer; reaching AckBatchSize kicks the
// writer immediately. Either way the writer drains the set on its next
// flush, so ACKs also piggyback on outbound traffic for free.
func (nc *neighborConn) queueAck(b *Broker, frameID uint64) {
	nc.ackMu.Lock()
	nc.pendingAcks = append(nc.pendingAcks, frameID)
	n := len(nc.pendingAcks)
	if n == 1 {
		if nc.ackFlushTimer == nil {
			nc.ackFlushTimer = time.AfterFunc(b.cfg.AckFlushInterval, nc.kickWriter)
		} else {
			nc.ackFlushTimer.Reset(b.cfg.AckFlushInterval)
		}
	}
	nc.ackMu.Unlock()
	if n >= b.cfg.AckBatchSize {
		nc.kickWriter()
	}
}

// takeAcks moves the pending coalesced ACKs into dst (reused storage) and
// clears the set. Called by the writer goroutine on every flush.
func (nc *neighborConn) takeAcks(dst []uint64) []uint64 {
	nc.ackMu.Lock()
	dst = append(dst[:0], nc.pendingAcks...)
	nc.pendingAcks = nc.pendingAcks[:0]
	nc.ackMu.Unlock()
	return dst
}

// kickWriter wakes the neighbor's writer pipeline so it drains the pending
// coalesced ACKs even when no other traffic is queued.
func (nc *neighborConn) kickWriter() {
	nc.mu.Lock()
	w := nc.w
	nc.mu.Unlock()
	if w != nil {
		w.kick()
	}
}

// resetRelay clears the per-link state when a connection is replaced or
// closed: pending coalesced ACKs must not leak onto the next connection
// (the peer retransmits unACKed frames and the receiver's frame dedup
// absorbs the duplicates), and probe/ACK samples from the old connection
// must not leak into the new one's estimates.
func (nc *neighborConn) resetRelay() {
	nc.ackMu.Lock()
	nc.pendingAcks = nc.pendingAcks[:0]
	if nc.ackFlushTimer != nil {
		nc.ackFlushTimer.Stop()
	}
	nc.ackMu.Unlock()
	nc.mu.Lock()
	nc.probeTok = 0
	clear(nc.dataSend)
	nc.mu.Unlock()
}

// appendAckBatch encodes the coalesced ACK set as one AckBatch frame onto
// the writer buffer. IDs are sorted ascending first: the encoding is
// consecutive deltas, and in-order frame IDs from one shard differ by one.
func (b *Broker) appendAckBatch(buf []byte, label string, ids []uint64) []byte {
	slices.Sort(ids)
	ab := wire.AckBatch{FrameIDs: ids}
	base := len(buf)
	buf = b.appendFrameChecked(buf, label, &ab)
	b.ackBatches.Add(1)
	b.ackFramesCoalesced.Add(uint64(len(ids)))
	if sz := len(buf) - base; sz > 0 && len(ids)*legacyAckFrameBytes > sz {
		b.relayBytesSaved.Add(uint64(len(ids)*legacyAckFrameBytes - sz))
	}
	return buf
}

// Writer-path message pools. The broker's two per-packet hot-path message
// allocations — the wire.Data built per relay send and the wire.MuxDeliver
// built per (topic, session) delivery — are recycled through the writer
// pipelines: the producer takes a struct from the pool, the writer returns
// it after encoding (releaseMsg), and a failed send returns it on the spot.
// Each pooled message has exactly one owner at all times; messages shared
// across writers (link-state floods, stats replies) are never pooled.
var (
	muxDeliverPool = sync.Pool{New: func() any { return new(wire.MuxDeliver) }}
	dataFramePool  = sync.Pool{New: func() any { return new(wire.Data) }}
)

func getMuxDeliver() *wire.MuxDeliver { return muxDeliverPool.Get().(*wire.MuxDeliver) }

func getDataFrame() *wire.Data { return dataFramePool.Get().(*wire.Data) }

// releaseMsg recycles a pooled writer-path message after its last use.
// Slice fields that alias longer-lived state (payloads, snapshot ID lists)
// are dropped so the pool cannot pin them; the Data node lists are
// producer-filled scratch and keep their capacity.
func releaseMsg(m wire.Message) {
	switch t := m.(type) {
	case *wire.MuxDeliver:
		t.SubIDs, t.Payload = nil, nil
		muxDeliverPool.Put(t)
	case *wire.Data:
		t.Payload = nil
		t.Dests = t.Dests[:0]
		t.Path = t.Path[:0]
		dataFramePool.Put(t)
	}
}
