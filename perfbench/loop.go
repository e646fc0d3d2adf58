package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// errStalled reports that deliveries stopped arriving during a phase.
var errStalled = errors.New("deliveries stalled")

// stallAfter is how long a phase may go without a delivery while messages
// are outstanding before it gives up.
const stallAfter = 5 * time.Second

// warmUp is the closed-loop warm-up before any measured phase.
const warmUp = time.Second

// window is the sampling period of the closed loop's per-window rates and
// CPU costs.
const window = 250 * time.Millisecond

// loopEnv is what the closed and open loops need from a live workload:
// publish sends message seq and perPub says how many logical deliveries it
// should cause. The workload's receiver adds logical deliveries to
// delivered as they arrive and calls completed once per fully delivered
// message.
type loopEnv struct {
	epoch     time.Time
	publish   func(seq uint64) error
	nextSeq   uint64
	pubErrs   uint64
	skipped   uint64 // published messages that are never fully delivered by design
	expected  uint64 // logical deliveries the publishes so far imply
	perPub    func(seq uint64) uint64
	tokens    chan struct{}
	done      atomic.Uint64 // fully delivered messages
	delivered atomic.Uint64 // logical deliveries
	abort     chan struct{}
	abortOnce sync.Once

	// Open-loop bookkeeping the receiver reads: the first sequence number
	// of the running open loop (or -1), its start offset and rate, and
	// the latency of each of its messages from its due time.
	olBase  atomic.Int64
	olStart atomic.Int64
	olRate  int
	olLat   []int64

	seqCap uint64 // sequence numbers the workload's arrays hold
	mem    arena  // per-message arrays, freed by the workload's teardown
}

func newLoopEnv(windowSize, maxOpenLoop, seqCap int) *loopEnv {
	e := &loopEnv{
		seqCap: uint64(seqCap),
		epoch:  time.Now(),
		tokens: make(chan struct{}, windowSize), // one token per in-flight message
		abort:  make(chan struct{}),
	}
	e.olLat = arenaSlice[int64](&e.mem, maxOpenLoop)
	e.olBase.Store(-1)
	for i := 0; i < windowSize; i++ {
		e.tokens <- struct{}{}
	}
	return e
}

func (e *loopEnv) now() int64 { return int64(time.Since(e.epoch)) }

// completed is called by the receiver once per fully delivered message.
// at is its receipt offset from the epoch.
func (e *loopEnv) completed(seq uint64, at int64) {
	if base := e.olBase.Load(); base >= 0 && seq >= uint64(base) {
		if i := seq - uint64(base); i < uint64(len(e.olLat)) {
			e.olLat[i] = int64(sinceDue(at-e.olStart.Load(), i, e.olRate))
		}
	}
	e.done.Add(1)
	select {
	case e.tokens <- struct{}{}:
	default: // a duplicate delivery; the check counts it
	}
}

func (e *loopEnv) send(seq uint64) {
	if err := e.publish(seq); err != nil {
		e.pubErrs++
		return
	}
	e.expected += e.perPub(seq)
}

// drain waits until every message published so far is fully delivered.
func (e *loopEnv) drain() error {
	last, lastAt := e.done.Load(), time.Now()
	for {
		d := e.done.Load()
		if d >= e.nextSeq-e.pubErrs-e.skipped {
			return nil
		}
		if d != last {
			last, lastAt = d, time.Now()
		} else if time.Since(lastAt) > stallAfter {
			return fmt.Errorf("%w: %d of %d messages fully delivered", errStalled, d, e.nextSeq-e.pubErrs-e.skipped)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// watchdog aborts a phase whose deliveries stop.
func (e *loopEnv) watchdog(stop <-chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	last, lastAt := e.done.Load(), time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		d := e.done.Load()
		if d != last {
			last, lastAt = d, time.Now()
			continue
		}
		if time.Since(lastAt) > stallAfter {
			e.abortOnce.Do(func() { close(e.abort) })
			return
		}
	}
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	elapsed   time.Duration
	delivered uint64    // logical deliveries
	rates     []float64 // logical deliveries per second, per window
	cpuPer    []float64 // process CPU ns per logical delivery, per window
	proc      procDelta
}

// closedLoop keeps the token window full for dur, then waits for the
// window to drain. It samples deliveries and process CPU every window.
func (e *loopEnv) closedLoop(dur time.Duration, tk *Track, parent uint64) (phaseResult, error) {
	var r phaseResult
	runtime.GC() // start from a collected heap, not the previous phase's garbage
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.watchdog(stop) }()
	var rates, cpuPer []float64
	go func() {
		defer wg.Done()
		t := time.NewTicker(window)
		defer t.Stop()
		prev, prevAt, prevCPU := e.delivered.Load(), time.Now(), processCPU()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				d, cpu := e.delivered.Load(), processCPU()
				if d > prev {
					rates = append(rates, float64(d-prev)/now.Sub(prevAt).Seconds())
					cpuPer = append(cpuPer, float64(cpu-prevCPU)/float64(d-prev))
				}
				prev, prevAt, prevCPU = d, now, cpu
			}
		}
	}()
	startDelivered := e.delivered.Load()
	p0 := sampleProc()
	end := p0.wall.Add(dur)
	var err error
	// Leave room in the sequence space for an open loop after this phase.
	limit := e.seqCap - uint64(len(e.olLat))
	for time.Now().Before(end) && e.nextSeq < limit {
		select {
		case <-e.tokens:
		case <-e.abort:
			err = errStalled
		}
		if err != nil {
			break
		}
		sp := tk.Begin("client.publish", parent)
		e.send(e.nextSeq)
		tk.End(sp)
		e.nextSeq++
	}
	if err == nil {
		err = e.drain()
	}
	p1 := sampleProc()
	close(stop)
	wg.Wait()
	r.proc = p0.to(p1)
	r.elapsed = r.proc.wall
	r.delivered = e.delivered.Load() - startDelivered
	r.rates, r.cpuPer = rates, cpuPer
	return r, err
}

// openResult is one open-loop phase.
type openResult struct {
	first, end uint64
	late       []float64 // generator lateness per message, ns
	lat        []float64 // due-time latency per message, ns
}

// openLoop publishes rate messages per second for dur on a fixed schedule,
// whatever the system does, then waits for the deliveries.
func (e *loopEnv) openLoop(dur time.Duration, rate int, tk *Track, parent uint64) (openResult, error) {
	n := int(dur.Seconds() * float64(rate))
	n = min(n, len(e.olLat), int(e.seqCap-e.nextSeq))
	r := openResult{
		first: e.nextSeq,
		late:  arenaSlice[float64](&e.mem, n)[:0],
		lat:   arenaSlice[float64](&e.mem, n)[:0],
	}
	for i := range e.olLat[:n] {
		e.olLat[i] = -1
	}
	e.olRate = rate
	runtime.GC() // start from a collected heap, not the previous phase's garbage
	start := e.now()
	e.olStart.Store(start)
	e.olBase.Store(int64(e.nextSeq))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); e.watchdog(stop) }()
	var err error
	for i := 0; i < n; {
		now := e.now() - start
		for ; i < n && dueNanos(uint64(i), rate) <= now; i++ {
			r.late = append(r.late, float64(sinceDue(e.now()-start, uint64(i), rate)))
			sp := tk.Begin("client.publish", parent)
			e.send(e.nextSeq)
			tk.End(sp)
			e.nextSeq++
		}
		if i < n {
			if wait := dueNanos(uint64(i), rate) - (e.now() - start); wait > 0 {
				preciseSleep(time.Duration(wait))
			}
		}
		select {
		case <-e.abort:
			err = errStalled
			i = n
		default:
		}
	}
	if err == nil {
		err = e.drain()
	}
	close(stop)
	<-done
	e.olBase.Store(-1)
	r.end = e.nextSeq
	for _, l := range e.olLat[:n] {
		if l >= 0 {
			r.lat = append(r.lat, float64(l))
		}
	}
	return r, err
}

// preciseSleep blocks the calling thread in nanosleep. time.Sleep wakes up
// to a millisecond late when the process is otherwise idle (the runtime's
// poller sleeps in whole milliseconds), which would add the generator's own
// lateness to every open-loop latency.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends on time
}
