package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// qosDeadline is every live subscription's delay requirement, and the
// limit qos_ratio counts on-time deliveries against: the paper's largest
// per-link delay.
const qosDeadline = 50 * time.Millisecond

// brokerConfig is the tuning every live broker runs with: a generous ACK
// guard so loopback jitter never reads as link loss, and fast dial and
// advert cadences so set-up time measures the system, not idle timers. The
// ping stays at 100 ms: at 20 ms the link-estimate churn it caused (a
// control-plane rebuild per changed estimate) disturbed delivery latency.
func brokerConfig(id int, addr string, neighbors map[int]string, dataDir string) broker.Config {
	return broker.Config{
		ID:              id,
		Listen:          addr,
		Neighbors:       neighbors,
		M:               2,
		AckGuard:        500 * time.Millisecond,
		PingInterval:    100 * time.Millisecond,
		AdvertInterval:  20 * time.Millisecond,
		DialRetry:       10 * time.Millisecond,
		DefaultDeadline: qosDeadline,
		DataDir:         dataDir,
	}
}

// bootBrokers starts n in-process brokers on loopback with the given
// undirected links; dataDirs, when not empty, gives each broker its WAL
// directory. On error every broker already started is closed.
func bootBrokers(n int, links [][2]int, dataDirs []string, tk *Track, parent uint64) ([]*broker.Broker, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners)
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	neighbors := make([]map[int]string, n)
	for i := range neighbors {
		neighbors[i] = make(map[int]string)
	}
	for _, l := range links {
		neighbors[l[0]][l[1]] = addrs[l[1]]
		neighbors[l[1]][l[0]] = addrs[l[0]]
	}
	var brokers []*broker.Broker
	for i := 0; i < n; i++ {
		dir := ""
		if len(dataDirs) > 0 {
			dir = dataDirs[i]
		}
		sp := tk.Begin("broker.new", parent)
		b, err := broker.New(brokerConfig(i, addrs[i], neighbors[i], dir))
		tk.End(sp)
		if err != nil {
			closeBrokers(brokers)
			closeListeners(listeners[i:])
			return nil, fmt.Errorf("broker %d: %w", i, err)
		}
		sp = tk.Begin("broker.start_listener", parent)
		err = b.StartListener(listeners[i])
		tk.End(sp)
		if err != nil {
			_ = b.Close()
			closeBrokers(brokers)
			closeListeners(listeners[i:])
			return nil, fmt.Errorf("broker %d: %w", i, err)
		}
		brokers = append(brokers, b)
	}
	return brokers, nil
}

func closeListeners(ls []net.Listener) {
	for _, ln := range ls {
		if ln != nil {
			_ = ln.Close()
		}
	}
}

func closeBrokers(bs []*broker.Broker) {
	for _, b := range bs {
		_ = b.Close()
	}
}

// brokerTotals sums the counters the per-layer metrics use over brokers.
type brokerTotals struct {
	forwarded, dropped, queueDrops       uint64
	ackBatches, ackCoalesced, bytesSaved uint64
	ctrlRebuilds, ctrlNoops, ctrlTables  uint64
	walAppends, walFsyncs, walBytes      uint64
}

func sumStats(bs []*broker.Broker) brokerTotals {
	var t brokerTotals
	for _, b := range bs {
		s := b.Stats()
		t.forwarded += s.Forwarded
		t.dropped += s.Dropped
		t.queueDrops += s.QueueDrops
		t.ackBatches += s.AckBatches
		t.ackCoalesced += s.AckFramesCoalesced
		t.bytesSaved += s.RelayBytesSaved
		t.ctrlRebuilds += s.Ctrl.Rebuilds
		t.ctrlNoops += s.Ctrl.Noops
		t.ctrlTables += s.Ctrl.TablesBuilt
		t.walAppends += s.Wal.Appends
		t.walFsyncs += s.Wal.Fsyncs
		t.walBytes += s.Wal.Bytes
	}
	return t
}

func (a brokerTotals) to(b brokerTotals) brokerTotals {
	return brokerTotals{
		forwarded:    delta(b.forwarded, a.forwarded),
		dropped:      delta(b.dropped, a.dropped),
		queueDrops:   delta(b.queueDrops, a.queueDrops),
		ackBatches:   delta(b.ackBatches, a.ackBatches),
		ackCoalesced: delta(b.ackCoalesced, a.ackCoalesced),
		bytesSaved:   delta(b.bytesSaved, a.bytesSaved),
		ctrlRebuilds: delta(b.ctrlRebuilds, a.ctrlRebuilds),
		ctrlNoops:    delta(b.ctrlNoops, a.ctrlNoops),
		ctrlTables:   delta(b.ctrlTables, a.ctrlTables),
		walAppends:   delta(b.walAppends, a.walAppends),
		walFsyncs:    delta(b.walFsyncs, a.walFsyncs),
		walBytes:     delta(b.walBytes, a.walBytes),
	}
}

// shardSampler polls clients' StatsReply shard sections while a traced
// phase runs, keeping the deepest mailbox seen and the first and last
// per-shard processed counters.
type shardSampler struct {
	clients    []*broker.Client
	depthMax   int32
	first      [][]wire.ShardStat
	last       [][]wire.ShardStat
	stop, done chan struct{}
	once       sync.Once
}

func startShardSampler(clients ...*broker.Client) *shardSampler {
	s := &shardSampler{clients: clients, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *shardSampler) sample() {
	cur := make([][]wire.ShardStat, len(s.clients))
	for i, c := range s.clients {
		r, err := c.Stats(time.Second)
		if err != nil {
			continue
		}
		cur[i] = r.Shards
		for _, sh := range r.Shards {
			s.depthMax = max(s.depthMax, sh.Depth)
		}
	}
	if s.first == nil {
		s.first = cur
	}
	s.last = cur
}

// Stop ends sampling and returns the deepest mailbox seen and the shard
// skew: the busiest shard's processed delta over the mean, per broker,
// averaged (1.0 is perfectly balanced).
func (s *shardSampler) Stop() (depthMax float64, skew float64) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	var sum float64
	var n int
	for i := range s.clients {
		if i >= len(s.first) || len(s.first[i]) == 0 || len(s.last[i]) != len(s.first[i]) {
			continue
		}
		var tot, top float64
		for j := range s.last[i] {
			d := float64(delta(s.last[i][j].Processed, s.first[i][j].Processed))
			tot += d
			top = max(top, d)
		}
		if tot > 0 {
			sum += top / (tot / float64(len(s.last[i])))
			n++
		}
	}
	return float64(s.depthMax), ratio(sum, float64(n))
}

// payloadGen builds seeded message bodies: bytes 0–7 hold the sequence
// number, 8–11 the CRC-32C of the rest, and the rest is a slice of a
// seeded random block chosen by the sequence number.
type payloadGen struct {
	size  int
	block []byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func newPayloadGen(seed uint64, size int) *payloadGen {
	r := rand.New(rand.NewPCG(seed, seed^0x5eed))
	block := make([]byte, 1<<16)
	for i := 0; i+8 <= len(block); i += 8 {
		binary.LittleEndian.PutUint64(block[i:], r.Uint64())
	}
	return &payloadGen{size: size, block: block}
}

// fill writes message seq into dst (len(dst) == size).
func (g *payloadGen) fill(dst []byte, seq uint64) {
	body := g.size - 12
	off := int((seq * 2654435761) % uint64(len(g.block)-body))
	copy(dst[12:], g.block[off:off+body])
	binary.LittleEndian.PutUint64(dst, seq)
	binary.LittleEndian.PutUint32(dst[8:], crc32.Checksum(dst[12:], crcTable))
}

// check returns the sequence number of an intact message, and false for a
// wrong length or checksum.
func (g *payloadGen) check(p []byte) (uint64, bool) {
	if len(p) != g.size {
		return 0, false
	}
	if binary.LittleEndian.Uint32(p[8:]) != crc32.Checksum(p[12:], crcTable) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}
