package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/algo1"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// sim_fig2: one Figure-2 point — a 20-node full mesh at Pf = 0.1 with the
// paper's other defaults — running all five approaches one after another
// on one goroutine over simTopologies topologies, with link monitoring
// sampled every simulated minute so Algorithm 1's warm rebuild runs.
const (
	simPf             = 0.1
	simDuration       = 5 * time.Minute
	simTopologies     = 8
	simMonitorSamples = 50
	simSetupReps      = 5
)

func simScenario(seed uint64) experiment.Scenario {
	s := experiment.DefaultScenario()
	s.Pf = simPf
	s.Duration = simDuration
	s.Topologies = simTopologies
	s.Seed = seed
	s.MonitorSamples = simMonitorSamples
	s.MonitorInterval = time.Minute
	return s
}

// deriveSeed is the experiment runner's seed mixer: the traced cell must
// draw exactly the random streams RunOne draws.
func deriveSeed(seed, topo, salt uint64) uint64 {
	x := seed ^ (topo+1)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return x
}

// simCell is one approach's cell built from the public constructors, in
// RunOne's order.
type simCell struct {
	sim   *des.Simulator
	net   *netsim.Network
	col   *metrics.Collector
	proto experiment.Protocol
	work  *pubsub.Workload
	rng   *rand.Rand
}

// buildCell makes the topology, workload, simulator, network and protocol
// (for DCRD, the cold Algorithm-1 tables) of one cell, with a span around
// each constructor.
func buildCell(s experiment.Scenario, a experiment.Approach, topo int, tk *Track, parent uint64) (*simCell, error) {
	envSeed := deriveSeed(s.Seed, uint64(topo), 0x0e9f)
	c := &simCell{rng: rand.New(rand.NewPCG(envSeed, envSeed^0xda3e39cb94b95bdb))}
	sp := tk.Begin("topology.full_mesh", parent)
	g, err := topology.FullMesh(s.Nodes, topology.DefaultDelayRange(), c.rng)
	tk.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tk.Begin("pubsub.generate", parent)
	c.work, err = pubsub.Generate(g, pubsub.Config{
		Topics:          s.Topics,
		PublishInterval: s.PublishInterval,
		SubProbMin:      s.SubProbMin,
		SubProbMax:      s.SubProbMax,
		DeadlineFactor:  s.DeadlineFactor,
	}, c.rng)
	tk.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tk.Begin("des.new", parent)
	c.sim = des.New(deriveSeed(s.Seed, uint64(topo), 0x51f1))
	tk.End(sp)
	sp = tk.Begin("netsim.new", parent)
	c.net, err = netsim.New(c.sim, g, netsim.Config{
		LossRate:         s.Pl,
		FailureProb:      s.Pf,
		NodeFailureProb:  s.NodeFailureProb,
		FailureEpoch:     time.Second,
		MonitorInterval:  s.MonitorInterval,
		InstantControl:   !s.RoundTripAcks,
		LinkBandwidth:    s.LinkBandwidth,
		QueueCapacity:    s.QueueCapacity,
		MonitorSamples:   s.MonitorSamples,
		MeanFailureBurst: s.MeanFailureBurst,
	}, deriveSeed(s.Seed, uint64(topo), 0xfa17))
	tk.End(sp)
	if err != nil {
		return nil, err
	}
	c.col = metrics.NewCollector()
	switch a {
	case experiment.DCRD:
		sp = tk.Begin("algo1.setup", parent)
		c.proto, err = core.NewRouter(c.net, c.work, c.col, core.RouterOptions{
			M:           s.M,
			Persistent:  s.Persistent,
			MaxLifetime: s.MaxLifetime,
			Build:       algo1.BuildOptions{Ordering: s.Ordering},
		})
		tk.End(sp)
	case experiment.RTree, experiment.DTree:
		kind := baseline.ReliableTree
		if a == experiment.DTree {
			kind = baseline.DelayTree
		}
		sp = tk.Begin("baseline.setup", parent)
		c.proto, err = baseline.NewTreeRouter(c.net, c.work, c.col, kind, s.M)
		tk.End(sp)
	case experiment.Oracle:
		sp = tk.Begin("baseline.setup", parent)
		c.proto, err = baseline.NewOracleRouter(c.net, c.work, c.col, s.MaxLifetime)
		tk.End(sp)
	case experiment.Multipath:
		sp = tk.Begin("baseline.setup", parent)
		c.proto, err = baseline.NewMultipathRouter(c.net, c.work, c.col, s.M)
		tk.End(sp)
	default:
		err = fmt.Errorf("unknown approach %v", a)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// simTopic is one topic's self-rescheduling publish timer, as RunOne arms
// it, with a span around each publish into the protocol.
type simTopic struct {
	c        *simCell
	topic    pubsub.Topic
	interval time.Duration
	horizon  time.Duration
	at       time.Duration
	nextID   uint64
	tk       *Track
	parent   *uint64
	span     string
}

func simPublishTick(arg any) {
	ts := arg.(*simTopic)
	pkt := pubsub.Packet{ID: ts.nextID, Topic: ts.topic.ID, Source: ts.topic.Publisher, PublishedAt: ts.c.sim.Now()}
	ts.c.col.Publish(&pkt, ts.topic.Subscribers)
	sp := ts.tk.Begin(ts.span, *ts.parent)
	ts.c.proto.Publish(pkt)
	ts.tk.End(sp)
	ts.nextID++
	ts.at += ts.interval
	if ts.at < ts.horizon {
		ts.c.sim.AtFunc(ts.at, simPublishTick, ts)
	}
}

// run schedules the rebuilds and publishes RunOne schedules, runs the
// simulation under a des.run span, and returns the cell's Result.
func (c *simCell) run(s experiment.Scenario, a experiment.Approach, tk *Track, parent uint64) metrics.Result {
	var runSpan uint64
	if r, ok := c.proto.(interface{ Rebuild() }); ok && s.MonitorSamples > 0 {
		rebuild := func() {
			sp := tk.Begin("algo1.rebuild", runSpan)
			r.Rebuild()
			tk.End(sp)
		}
		for at := s.MonitorInterval; at < s.Duration+s.Drain; at += s.MonitorInterval {
			c.sim.At(at, rebuild)
		}
	}
	span := "baseline.publish"
	if a == experiment.DCRD {
		span = "algo2.publish"
	}
	var nextID uint64
	for _, t := range c.work.Topics() {
		offset := time.Duration(c.rng.Int64N(int64(s.PublishInterval)))
		if offset >= s.Duration {
			continue
		}
		ts := &simTopic{c: c, topic: t, interval: s.PublishInterval, horizon: s.Duration,
			at: offset, nextID: nextID + 1, tk: tk, parent: &runSpan, span: span}
		nextID += uint64((s.Duration-offset-1)/s.PublishInterval) + 1
		c.sim.AtFunc(offset, simPublishTick, ts)
	}
	runSpan = tk.Begin("des.run", parent)
	c.sim.RunUntil(s.Duration + s.Drain)
	tk.End(runSpan)
	return c.col.Result(c.net.Stats().DataTransmissions)
}

// simResults runs every (topology, approach) cell through
// experiment.RunOne, topology-major, and returns the Results in that order
// with each approach's total time.
func simResults(s experiment.Scenario) ([]metrics.Result, []time.Duration, error) {
	var out []metrics.Result
	times := make([]time.Duration, len(experiment.AllApproaches()))
	for topo := 0; topo < s.Topologies; topo++ {
		for i, a := range experiment.AllApproaches() {
			t0 := time.Now()
			r, err := experiment.RunOne(s, a, topo)
			if err != nil {
				return nil, nil, fmt.Errorf("%v on topology %d: %w", a, topo, err)
			}
			times[i] += time.Since(t0)
			out = append(out, r)
		}
	}
	return out, times, nil
}

// dcrdAggregate collects DCRD's Results out of a simResults slice.
func dcrdAggregate(rs []metrics.Result) experiment.Aggregate {
	agg := experiment.Aggregate{Approach: experiment.DCRD}
	n := len(experiment.AllApproaches())
	for i := 0; i < len(rs); i += n {
		agg.Runs = append(agg.Runs, rs[i]) // DCRD is first in AllApproaches
	}
	return agg
}

func totalDelivered(rs []metrics.Result) float64 {
	var n int
	for _, r := range rs {
		n += r.Delivered
	}
	return float64(n)
}

func runSim(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	s := simScenario(cfg.seed)
	tr := cfg.tracer
	tk := tr.Track()
	root := tk.Begin("perfbench.sim_fig2", 0)
	defer tk.End(root)

	// Set-up builds DCRD's cell — topology, workload, network and cold
	// Algorithm-1 tables — for every topology of the point.
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		runtime.GC() // each set-up starts without the previous one's garbage
		sp := tk.Begin("perfbench.setup", root)
		t0 := time.Now()
		for topo := 0; topo < s.Topologies; topo++ {
			if _, err := buildCell(s, experiment.DCRD, topo, tk, sp); err != nil {
				return nil, fmt.Errorf("sim_fig2 set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		tk.End(sp)
	}
	out.e2e["setup_s"] = median(setups)

	// Untraced: repeat the whole point (every topology, every approach) for
	// the run's time; every repetition must reproduce the first bit for bit.
	var ref []metrics.Result
	var rates []float64
	var cellTimes [][]time.Duration
	var deliveries float64
	budget := cfg.seconds
	if tr != nil {
		budget /= 2
	}
	p0 := sampleProc()
	for rep := 0; rep == 0 || time.Since(p0.wall) < budget; rep++ {
		t0 := time.Now()
		rs, times, err := simResults(s)
		if err != nil {
			return nil, fmt.Errorf("sim_fig2: %w", err)
		}
		cell := time.Since(t0)
		out.attempted += uint64(len(rs))
		if ref == nil {
			ref = rs
		} else if !reflect.DeepEqual(rs, ref) {
			out.failed += uint64(len(rs))
			out.problems = append(out.problems, fmt.Sprintf("sim: repetition %d differs from the first", rep))
		}
		deliveries += totalDelivered(rs)
		rates = append(rates, totalDelivered(rs)/cell.Seconds())
		cellTimes = append(cellTimes, times)
	}
	pd := p0.to(sampleProc())
	dcrd := dcrdAggregate(ref)
	var lat []float64
	for _, r := range dcrd.Runs {
		for _, l := range r.Latencies {
			lat = append(lat, float64(l))
		}
	}
	rate := fastQuartile(rates, true)
	out.e2e["deliveries_per_s"] = rate
	out.e2e["cpu_ns_per_delivery"] = ratio(float64(pd.cpu), deliveries)
	out.latency(lat, "simulated publish to delivery, DCRD")
	out.e2e["qos_ratio"] = dcrd.MeanQoSRatio()
	out.e2e["delivery_ratio"] = dcrd.MeanDeliveryRatio()
	out.e2e["packets_per_sub"] = dcrd.MeanPacketsPerSubscriber()
	out.detail["repetitions"] = len(rates)
	out.detail["sim_s"] = totalDelivered(ref) / rate

	if tr == nil {
		return out, nil
	}
	out.layer["proc.cpu_util"] = ratio(float64(pd.cpu), float64(pd.wall))
	out.layer["proc.allocs_per_delivery"] = ratio(float64(pd.mallocs), deliveries)
	out.layer["proc.gc_pause_ms"] = ms(pd.gcPause)
	for i, a := range experiment.AllApproaches() {
		var ts []float64
		for _, times := range cellTimes {
			ts = append(ts, times[i].Seconds())
		}
		out.layer["experiment.cell_s."+strings.ToLower(strings.ReplaceAll(a.String(), "-", ""))] = median(ts)
	}

	// Traced: the same cells rebuilt from the public calls RunOne makes,
	// each of which must reproduce RunOne's Result exactly.
	cellSpan := tk.Begin("perfbench.traced_cell", root)
	t0 := time.Now()
	var events uint64
	var traced []metrics.Result
	var dataTx, ctrlTx, dropped uint64
	for topo := 0; topo < s.Topologies; topo++ {
		for _, a := range experiment.AllApproaches() {
			sp := tk.Begin("experiment.cell."+a.String(), cellSpan)
			c, err := buildCell(s, a, topo, tk, sp)
			if err != nil {
				return nil, fmt.Errorf("sim_fig2 traced %v: %w", a, err)
			}
			r := c.run(s, a, tk, sp)
			tk.End(sp)
			out.attempted++
			if !reflect.DeepEqual(r, ref[len(traced)]) {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("sim: traced %v cell on topology %d differs from experiment.RunOne", a, topo))
			}
			traced = append(traced, r)
			events += c.sim.Processed()
			if a == experiment.DCRD {
				st := c.net.Stats()
				dataTx += st.DataTransmissions
				ctrlTx += st.ControlTransmissions
				dropped += st.DroppedFailure + st.DroppedLoss + st.DroppedQueue + st.DroppedFiltered
			}
		}
	}
	out.layer["netsim.data_tx"] = float64(dataTx)
	out.layer["netsim.ctrl_tx"] = float64(ctrlTx)
	out.layer["netsim.dropped"] = float64(dropped)
	tracedRate := totalDelivered(traced) / time.Since(t0).Seconds()
	tk.End(cellSpan)
	out.layer["des.events"] = float64(events)
	out.layer["trace.overhead_pct"] = 100 * (rate - tracedRate) / rate
	out.simEvents = events
	return out, nil
}

// simSpanLayers fills the sim_fig2 per-layer metrics that come from spans.
func simSpanLayers(out *outcome, spans []Span) {
	self := selfTimes(spans)
	var runSelf, runTotal int64
	for _, s := range spans {
		if s.Name == "des.run" {
			runSelf += self[s.ID]
			runTotal += s.End - s.Start
		}
	}
	out.layer["des.run_self_s"] = float64(runSelf) / 1e9
	out.layer["des.events_per_s"] = ratio(float64(out.simEvents), float64(runTotal)/1e9)
	out.layer["algo1.rebuild_us_p50"] = percentile(durations(spans, "algo1.rebuild"), 50) / 1e3
	out.layer["algo2.publish_us_p50"] = percentile(durations(spans, "algo2.publish"), 50) / 1e3
	// Build spans of the traced cells only (not the set-up repetitions):
	// mean per cell.
	cells := map[uint64]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "experiment.cell.") {
			cells[s.ID] = true
		}
	}
	sum := map[string]float64{}
	for _, s := range spans {
		if cells[s.Parent] {
			sum[s.Name] += float64(s.End - s.Start)
		}
	}
	n := float64(len(cells))
	out.layer["topology.build_ms"] = ratio(sum["topology.full_mesh"], n) / 1e6
	out.layer["pubsub.build_ms"] = ratio(sum["pubsub.generate"], n) / 1e6
	out.layer["netsim.build_ms"] = ratio(sum["netsim.new"], n) / 1e6
	out.layer["algo1.setup_ms"] = sum["algo1.setup"] / float64(simTopologies) / 1e6
}
