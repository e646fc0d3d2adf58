package broker

import (
	"time"

	"repro/internal/wire"
)

// Session is a multiplexed subscriber endpoint: many logical subscribers
// share one TCP connection, and the broker aggregates deliveries — one
// MuxDeliver frame per (topic, session) carrying the payload once plus the
// subscriber-ID list — instead of sending one frame per subscriber.
//
// Deliveries are dispatched to the handler on the session's read goroutine
// through a pooled wire.Reader: the *wire.MuxDeliver and every slice it
// references (SubIDs, Payload) are recycled on the next frame, so the
// handler must copy whatever it retains and must not block for long (it
// backpressures the TCP connection, which is usually the right thing).
//
// Subscribe and Unsubscribe are buffered (bufio) so a registration burst of
// 100k subscribers coalesces into large writes; call Flush after the last
// one to put the tail on the wire.
type Session struct {
	ep *endpoint
}

// DialSession connects a named multiplexed session to a broker. expect is
// an advisory count of logical subscribers the session will register (the
// broker only logs it today); handler receives every aggregated delivery
// (see the Session ownership rules). A nil handler discards deliveries.
func DialSession(addr, name string, expect uint32, handler func(*wire.MuxDeliver)) (*Session, error) {
	ep, err := dialEndpoint("session", addr, name, &wire.SessionHello{Subscribers: expect})
	if err != nil {
		return nil, err
	}
	go ep.readLoop(func(msg wire.Message) {
		if m, ok := msg.(*wire.MuxDeliver); ok && handler != nil {
			handler(m)
		}
	}, func() {})
	return &Session{ep: ep}, nil
}

// Subscribe registers one session-local logical subscriber (identified by
// subID, unique within this session) on a topic with a QoS delay
// requirement (0 uses the broker's default). Buffered; see Flush.
func (s *Session) Subscribe(subID uint32, topic int32, deadline time.Duration) error {
	return s.ep.write(&wire.SessionSub{SubID: subID, Topic: topic, Deadline: deadline}, false)
}

// Unsubscribe removes one logical subscriber from a topic. Buffered; see
// Flush.
func (s *Session) Unsubscribe(subID uint32, topic int32) error {
	return s.ep.write(&wire.SessionUnsub{SubID: subID, Topic: topic}, false)
}

// Flush puts any buffered Subscribe/Unsubscribe frames on the wire.
func (s *Session) Flush() error { return s.ep.write(nil, true) }

// Err reports the read-loop error after the session ends (nil on clean
// Close).
func (s *Session) Err() error { return s.ep.err() }

// Done is closed when the read loop ends (connection closed or failed).
func (s *Session) Done() <-chan struct{} { return s.ep.done }

// Close disconnects the session; the broker drops all of its logical
// subscribers.
func (s *Session) Close() error { return s.ep.close() }
