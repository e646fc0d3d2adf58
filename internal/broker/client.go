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

// Client is a publisher/subscriber endpoint connected to one live broker.
// It is safe for concurrent use.
type Client struct {
	name string
	conn net.Conn

	writeMu sync.Mutex

	mu        sync.Mutex
	closed    bool
	inbox     chan Delivery
	readErr   error
	readDone  chan struct{}
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

// Dial connects a named client to a broker.
func Dial(addr, name string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker client: dial %s: %w", addr, err)
	}
	if err := wire.Write(conn, &wire.Hello{BrokerID: -1, Name: name}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("broker client: handshake: %w", err)
	}
	c := &Client{
		name:      name,
		conn:      conn,
		inbox:     make(chan Delivery, 1024),
		readDone:  make(chan struct{}),
		statsWait: make(map[uint64]chan *wire.StatsReply),
	}
	go c.readLoop()
	return c, nil
}

// readLoop pumps deliveries into the inbox until the connection drops.
// Frames are decoded by a pooled Reader, so everything handed out of the
// loop is copied first.
func (c *Client) readLoop() {
	defer close(c.readDone)
	defer close(c.inbox)
	rd := wire.NewReader(bufio.NewReaderSize(c.conn, readBufSize))
	for {
		msg, err := rd.Next()
		if err != nil {
			c.mu.Lock()
			if !c.closed {
				c.readErr = err
			}
			c.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *wire.Deliver:
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
		case *wire.Pong:
			// ignore
		default:
			// ignore unexpected frames
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
	if err := c.write(&wire.StatsRequest{Token: token}); err != nil {
		cleanup()
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-c.readDone:
		cleanup()
		return nil, fmt.Errorf("broker client %q: connection closed awaiting stats", c.name)
	case <-t.C:
		cleanup()
		return nil, fmt.Errorf("broker client %q: stats timeout after %v", c.name, timeout)
	}
}

// Subscribe registers this client for a topic with a QoS delay requirement
// (0 uses the broker's default).
func (c *Client) Subscribe(topic int32, deadline time.Duration) error {
	return c.write(&wire.Subscribe{Topic: topic, Deadline: deadline})
}

// Unsubscribe removes this client's subscription to a topic.
func (c *Client) Unsubscribe(topic int32) error {
	return c.write(&wire.Unsubscribe{Topic: topic})
}

// Publish submits a message on a topic with a QoS delay requirement
// (0 uses the broker's default).
func (c *Client) Publish(topic int32, deadline time.Duration, payload []byte) error {
	return c.write(&wire.Publish{Topic: topic, Deadline: deadline, Payload: payload})
}

// Receive returns the channel of deliveries; it closes when the connection
// ends.
func (c *Client) Receive() <-chan Delivery { return c.inbox }

// Err reports the read-loop error after Receive closes (nil on clean Close).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Close disconnects the client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readDone
	return err
}

func (c *Client) write(msg wire.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := wire.Write(c.conn, msg); err != nil {
		return fmt.Errorf("broker client %q: %w", c.name, err)
	}
	return nil
}
