package broker

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// endpoint is the connection core that Client and Session share: one dial
// and Hello, one framed write path, one pooled-Reader read loop and one
// Err/Close/done lifecycle. Each public type supplies only its dispatch.
type endpoint struct {
	kind string // "client" or "session", for error messages
	name string
	conn net.Conn

	writeMu sync.Mutex
	bw      *bufio.Writer

	mu      sync.Mutex
	closed  bool
	readErr error
	done    chan struct{}
}

// dialEndpoint connects to a broker and sends the Hello handshake, then
// the opening frame when it is non-nil, and flushes both before it returns.
func dialEndpoint(kind, addr, name string, opening wire.Message) (*endpoint, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker %s: dial %s: %w", kind, addr, err)
	}
	e := &endpoint{
		kind: kind,
		name: name,
		conn: conn,
		bw:   bufio.NewWriterSize(conn, writerBufCap),
		done: make(chan struct{}),
	}
	err = e.write(&wire.Hello{BrokerID: -1, Name: name}, false)
	if err == nil {
		err = e.write(opening, true)
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("broker %s: handshake: %w", kind, err)
	}
	return e, nil
}

// readLoop hands every decoded frame to dispatch until the connection
// drops, then runs exit and closes done. Frames come from a pooled Reader:
// a message and its slices are valid only until dispatch returns.
func (e *endpoint) readLoop(dispatch func(wire.Message), exit func()) {
	defer close(e.done)
	defer exit()
	rd := wire.NewReader(bufio.NewReaderSize(e.conn, readBufSize))
	for {
		msg, err := rd.Next()
		if err != nil {
			e.mu.Lock()
			if !e.closed {
				e.readErr = err
			}
			e.mu.Unlock()
			return
		}
		dispatch(msg)
	}
}

// write encodes msg into the buffered writer (a nil msg encodes nothing)
// and, when flush is set, puts everything buffered on the wire before it
// returns.
func (e *endpoint) write(msg wire.Message, flush bool) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	var err error
	if msg != nil {
		err = wire.Write(e.bw, msg)
	}
	if err == nil && flush {
		err = e.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("broker %s %q: %w", e.kind, e.name, err)
	}
	return nil
}

// err reports the read-loop error after the loop ends (nil on clean close).
func (e *endpoint) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.readErr
}

// close disconnects and waits for the read loop to finish.
func (e *endpoint) close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	err := e.conn.Close()
	<-e.done
	return err
}

// Client is a publisher/subscriber endpoint connected to one live broker.
// Its subscriptions ride the session protocol as subscriber 0 of its own
// connection. It is safe for concurrent use.
type Client struct {
	ep    *endpoint
	inbox chan Delivery

	mu        sync.Mutex
	nextToken uint64
	statsWait map[uint64]chan *wire.StatsReply
}

// Delivery is one message received on a subscribed topic.
type Delivery struct {
	Topic       int32
	PacketID    uint64
	Source      int32
	PublishedAt time.Time
	Latency     time.Duration // receive time minus publish time
	Payload     []byte
}

// clientSubID is the one session-local subscriber ID a Client uses.
const clientSubID = 0

// Dial connects a named client to a broker.
func Dial(addr, name string) (*Client, error) {
	ep, err := dialEndpoint("client", addr, name, nil)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ep:        ep,
		inbox:     make(chan Delivery, 1024),
		statsWait: make(map[uint64]chan *wire.StatsReply),
	}
	go ep.readLoop(c.dispatch, func() { close(c.inbox) })
	return c, nil
}

// dispatch turns each aggregated delivery into one Delivery in the inbox
// and hands stats replies to their waiters. Messages are pooled, so
// everything handed out is copied first.
func (c *Client) dispatch(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MuxDeliver:
		d := Delivery{
			Topic:       m.Topic,
			PacketID:    m.PacketID,
			Source:      m.Source,
			PublishedAt: m.PublishedAt,
			Latency:     time.Since(m.PublishedAt),
			Payload:     bytes.Clone(m.Payload),
		}
		select {
		case c.inbox <- d:
		default: // slow consumer: drop rather than block the link
		}
	case *wire.StatsReply:
		c.mu.Lock()
		ch := c.statsWait[m.Token]
		delete(c.statsWait, m.Token)
		c.mu.Unlock()
		if ch != nil {
			reply := *m
			reply.Neighbors = slices.Clone(m.Neighbors)
			reply.Routes = slices.Clone(m.Routes)
			reply.Shards = slices.Clone(m.Shards)
			reply.Links = slices.Clone(m.Links)
			ch <- &reply
		}
	}
}

// Stats asks the broker for its operational state, waiting up to timeout.
func (c *Client) Stats(timeout time.Duration) (*wire.StatsReply, error) {
	c.mu.Lock()
	c.nextToken++
	token := c.nextToken
	ch := make(chan *wire.StatsReply, 1)
	c.statsWait[token] = ch
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.statsWait, token)
		c.mu.Unlock()
	}
	if err := c.ep.write(&wire.StatsRequest{Token: token}, true); err != nil {
		cleanup()
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-c.ep.done:
		cleanup()
		return nil, fmt.Errorf("broker client %q: connection closed awaiting stats", c.ep.name)
	case <-t.C:
		cleanup()
		return nil, fmt.Errorf("broker client %q: stats timeout after %v", c.ep.name, timeout)
	}
}

// Subscribe registers this client for a topic with a QoS delay requirement
// (0 uses the broker's default). The broker publishes the subscription
// within its coalescing window; a repeated Subscribe keeps the loosest
// deadline.
func (c *Client) Subscribe(topic int32, deadline time.Duration) error {
	return c.ep.write(&wire.SessionSub{SubID: clientSubID, Topic: topic, Deadline: deadline}, true)
}

// Unsubscribe removes this client's subscription to a topic.
func (c *Client) Unsubscribe(topic int32) error {
	return c.ep.write(&wire.SessionUnsub{SubID: clientSubID, Topic: topic}, true)
}

// Publish submits a message on a topic with a QoS delay requirement
// (0 uses the broker's default).
func (c *Client) Publish(topic int32, deadline time.Duration, payload []byte) error {
	return c.ep.write(&wire.Publish{Topic: topic, Deadline: deadline, Payload: payload}, true)
}

// Receive returns the channel of deliveries; it closes when the connection
// ends.
func (c *Client) Receive() <-chan Delivery { return c.inbox }

// Err reports the read-loop error after Receive closes (nil on clean Close).
func (c *Client) Err() error { return c.ep.err() }

// Close disconnects the client.
func (c *Client) Close() error { return c.ep.close() }
