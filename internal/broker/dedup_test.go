package broker

import (
	"testing"
	"time"
)

func TestDedupBasics(t *testing.T) {
	d := newDedup(4)
	for i := uint64(0); i < 4; i++ {
		if d.Seen(i) {
			t.Fatalf("fresh key %d reported seen", i)
		}
		if !d.Seen(i) {
			t.Fatalf("repeated key %d reported fresh", i)
		}
	}
}

func TestDedupEvictsOldestFIFO(t *testing.T) {
	d := newDedup(3)
	for i := uint64(1); i <= 3; i++ {
		d.Seen(i)
	}
	d.Seen(4) // evicts 1
	if d.Seen(1) {
		t.Error("evicted key 1 still reported seen")
	}
	// Re-adding 1 evicted 2 (oldest remaining).
	if d.Seen(2) {
		t.Error("key 2 should have been evicted")
	}
	// 3 and 4 were pushed out by the re-adds of 1 and 2? Order now: after
	// inserts 1..3 -> [1 2 3]; Seen(4) evicts 1 -> [4 2 3]; Seen(1) evicts
	// 2 -> [4 1 3]; Seen(2) evicts 3 -> [4 1 2]. So 4 must still be seen.
	if !d.Seen(4) {
		t.Error("key 4 should still be present")
	}
}

func TestDedupMinimumCapacity(t *testing.T) {
	d := newDedup(0) // clamps to 1
	if d.Seen(1) {
		t.Error("fresh key seen")
	}
	if d.Seen(2) {
		t.Error("fresh key seen")
	}
	if d.Seen(1) {
		t.Error("key 1 should have been evicted by key 2")
	}
}

func TestGammaAdaptation(t *testing.T) {
	nc := newNeighborConn(1)
	_, g0 := nc.estimate()
	if g0 != initialGamma {
		t.Fatalf("initial gamma = %v", g0)
	}
	nc.ackTimedOut()
	_, g1 := nc.estimate()
	if g1 >= g0 {
		t.Errorf("gamma did not decay on timeout: %v -> %v", g0, g1)
	}
	for i := 0; i < 200; i++ {
		nc.ackTimedOut()
	}
	_, gFloor := nc.estimate()
	if gFloor < gammaFloor {
		t.Errorf("gamma fell through floor: %v", gFloor)
	}
	for i := 0; i < 500; i++ {
		nc.ackSucceeded()
	}
	_, gUp := nc.estimate()
	if gUp <= gFloor || gUp > 1 {
		t.Errorf("gamma did not recover: %v", gUp)
	}
}

func TestAlphaFromPong(t *testing.T) {
	nc := newNeighborConn(1)
	base := time.Now()
	nc.recordPing(7, base)
	if nc.recordPong(99, base.Add(time.Millisecond)) {
		t.Error("unknown pong token accepted")
	}
	if !nc.recordPong(7, base.Add(40*time.Millisecond)) {
		t.Error("known pong token rejected")
	}
	alpha, _ := nc.estimate()
	// EWMA of initial 20ms toward sample 20ms (RTT/2 = 20ms): stays 20ms.
	if alpha < 15*time.Millisecond || alpha > 25*time.Millisecond {
		t.Errorf("alpha = %v after 40ms RTT sample", alpha)
	}
}

func TestPingMapBounded(t *testing.T) {
	nc := newNeighborConn(1)
	now := time.Now()
	for i := uint64(0); i < 1000; i++ {
		nc.recordPing(i, now)
	}
	nc.mu.Lock()
	n := len(nc.lastPing)
	nc.mu.Unlock()
	if n > 65 {
		t.Errorf("ping token map grew to %d entries", n)
	}
}

func TestUnsubscribeWithdrawsRoute(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(4, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to appear", func() bool {
		b := o.brokers[0]
		return len(ctrlList(b, 4, 1)) > 0
	})
	if err := sub.Unsubscribe(4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to be withdrawn", func() bool {
		b := o.brokers[0]
		return ctrlList(b, 4, 1) == nil && ctrlDests(b, 4) == nil
	})
}

func TestClientDisconnectWithdrawsRoute(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(6, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to appear", func() bool {
		b := o.brokers[0]
		return len(ctrlList(b, 6, 1)) > 0
	})
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to be withdrawn after disconnect", func() bool {
		return o.brokers[1].localLedger(6).subscribers() == 0 && ctrlDests(o.brokers[0], 6) == nil
	})
}
