package transport

import (
	"log"
	"sync"
	"sync/atomic"
	"time"
)

// WithLatency wraps a network so that every delivery is delayed by the
// given one-way latency — a simulated WAN for sensitivity experiments.
// The paper's testbed ran on a LAN between four machines; this wrapper
// lets the Table II microbenchmarks be replayed under realistic
// cross-datacenter delays without real infrastructure.
//
// Sends return immediately; deliveries happen in send order after the
// propagation delay (pipelined sends overlap their latencies, as on a
// real link, and FIFO order per sender is preserved). Bandwidth
// simulation is out of scope — the byte meter already reports volume.
//
// Delivery failures in the background forwarder are not silent: the
// first is logged, every one is counted (see DeliveryCounter), and
// Close flushes messages still queued behind their delay instead of
// dropping them.
func WithLatency(n Network, d time.Duration) Network {
	if d <= 0 {
		return n
	}
	return &latentNetwork{Network: n, delay: d}
}

// DeliveryCounter reports background delivery failures of a wrapping
// transport. The network returned by WithLatency implements it.
type DeliveryCounter interface {
	// DeliveryErrors is the number of queued messages whose underlying
	// Send failed after the propagation delay.
	DeliveryErrors() int64
}

type latentNetwork struct {
	Network

	delay time.Duration
	errs  atomic.Int64
}

var _ DeliveryCounter = (*latentNetwork)(nil)

// DeliveryErrors implements DeliveryCounter.
func (l *latentNetwork) DeliveryErrors() int64 { return l.errs.Load() }

// Unwrap exposes the wrapped transport so decorator-blind attachments
// (transport.AttachObs) can reach the real meter.
func (l *latentNetwork) Unwrap() Network { return l.Network }

func (l *latentNetwork) Endpoint(actor int) (Endpoint, error) {
	ep, err := l.Network.Endpoint(actor)
	if err != nil {
		return nil, err
	}
	le := &latentEndpoint{
		Endpoint: ep,
		parent:   l,
		delay:    l.delay,
		queue:    make(chan delayedMessage, 1024),
		done:     make(chan struct{}),
		loopExit: make(chan struct{}),
	}
	go le.deliverLoop()
	return le, nil
}

type delayedMessage struct {
	msg Message
	due time.Time
}

type latentEndpoint struct {
	Endpoint

	parent *latentNetwork
	delay  time.Duration
	queue  chan delayedMessage

	logOnce  sync.Once
	done     chan struct{}
	loopExit chan struct{}

	// mu orders Send against Close: once Close has observed the closed
	// flag set, no Send can enqueue anymore, so the final drain below
	// loopExit sees every accepted message. Without this a Send that
	// passed its done-check could enqueue after the drain and the
	// message would be lost despite Send returning nil.
	mu     sync.Mutex
	closed bool
}

// deliverLoop forwards queued messages once their propagation delay
// has elapsed, preserving send order. A message already dequeued when
// Close fires is forwarded immediately rather than dropped.
func (e *latentEndpoint) deliverLoop() {
	defer close(e.loopExit)
	for {
		select {
		case dm := <-e.queue:
			if wait := time.Until(dm.due); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-e.done:
					timer.Stop()
					e.forward(dm.msg)
					return
				}
			}
			e.forward(dm.msg)
		case <-e.done:
			return
		}
	}
}

// forward hands a due message to the underlying transport, counting
// (and logging once) delivery failures instead of discarding them.
func (e *latentEndpoint) forward(msg Message) {
	if err := e.Endpoint.Send(msg); err != nil {
		e.parent.errs.Add(1)
		e.logOnce.Do(func() {
			log.Printf("transport: latency wrapper: delivery %s→%s failed: %v (further failures counted, see DeliveryErrors)",
				ActorName(e.Self()), ActorName(msg.To), err)
		})
	}
}

func (e *latentEndpoint) Send(msg Message) error {
	if msg.From == 0 {
		msg.From = e.Self()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	// While the endpoint is open the deliver loop keeps draining, so
	// this enqueue completes; holding mu keeps Close from starting its
	// final drain with the message still in flight.
	e.queue <- delayedMessage{msg: msg, due: time.Now().Add(e.delay)}
	return nil
}

// Close stops the forwarder, flushes messages still queued behind
// their propagation delay (they are delivered immediately; failures
// are counted), and then closes the underlying endpoint. Every Send
// that returned nil has been either delivered or counted by the time
// Close returns — none are silently lost.
func (e *latentEndpoint) Close() error {
	e.mu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	e.mu.Unlock()
	if !alreadyClosed {
		close(e.done)
	}
	<-e.loopExit
	for {
		select {
		case dm := <-e.queue:
			e.forward(dm.msg)
		default:
			return e.Endpoint.Close()
		}
	}
}
