// Package sysc is a lightweight discrete-event simulation kernel in the
// style of SystemC (IEEE 1666): simulated time, scheduled events with
// delta-cycle semantics, method processes re-triggered via notifications,
// and a TLM-2.0-flavoured blocking-transport bus. It hosts the native
// peripheral models of the concrete VP baseline (the "VP" column of
// Table 1), contrasting with the CTE approach where peripherals are
// software models executed on the ISS itself.
package sysc

import (
	"container/heap"
	"fmt"
)

// Time is simulation time in cycles.
type Time uint64

// Process is a schedulable callback (an SC_METHOD-style process: it runs
// to completion and may re-notify itself).
type Process func()

type event struct {
	at    Time
	delta uint64 // tie-break: preserves notify ordering within a cycle
	fn    Process
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].delta < h[j].delta
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Kernel is the simulation scheduler. The zero value is ready to use.
type Kernel struct {
	now    Time
	events eventHeap
	deltas uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Schedule notifies fn after delay cycles (delay 0 = next delta cycle).
func (k *Kernel) Schedule(delay Time, fn Process) {
	k.deltas++
	heap.Push(&k.events, &event{at: k.now + delay, delta: k.deltas, fn: fn})
}

// Pending reports whether any event is scheduled.
func (k *Kernel) Pending() bool { return len(k.events) > 0 }

// NextEventTime returns the time of the earliest scheduled event; ok is
// false when the queue is empty.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// AdvanceTo moves time forward to t, running every event that becomes
// due (in timestamp order, FIFO within a timestamp).
func (k *Kernel) AdvanceTo(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		e := heap.Pop(&k.events).(*event)
		if e.at > k.now {
			k.now = e.at
		}
		e.fn()
	}
	if t > k.now {
		k.now = t
	}
}

// Run drains the event queue completely (classic sc_start()).
func (k *Kernel) Run() {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*event)
		k.now = e.at
		e.fn()
	}
}

// Event is a named notification channel: processes sensitive to the
// event are re-run when it is notified (simplified sc_event).
type Event struct {
	k        *Kernel
	handlers []Process
}

// NewEvent creates an event bound to the kernel.
func (k *Kernel) NewEvent() *Event { return &Event{k: k} }

// Sensitive registers a process to run on each notification.
func (e *Event) Sensitive(p Process) { e.handlers = append(e.handlers, p) }

// Notify schedules every sensitive process after delay.
func (e *Event) Notify(delay Time) {
	for _, h := range e.handlers {
		e.k.Schedule(delay, h)
	}
}

// Target is a TLM-2.0-style blocking transport interface: data is read
// or written at a target-local address.
type Target interface {
	BTransport(addr uint32, data []byte, isRead bool)
}

// mapping is one address range routed to a target.
type mapping struct {
	base, size uint32
	target     Target
	name       string
}

// Bus routes global addresses to targets with global-to-local address
// translation (the interconnect of the paper's Fig. 1 VP).
type Bus struct {
	maps []mapping
}

// Map attaches a target at [base, base+size).
func (b *Bus) Map(name string, base, size uint32, t Target) {
	b.maps = append(b.maps, mapping{base: base, size: size, target: t, name: name})
}

// Route finds the mapping for addr, returning the target and the local
// address, or an error for unmapped addresses.
func (b *Bus) Route(addr uint32) (Target, uint32, error) {
	for i := range b.maps {
		m := &b.maps[i]
		if addr >= m.base && addr < m.base+m.size {
			return m.target, addr - m.base, nil
		}
	}
	return nil, 0, fmt.Errorf("sysc: no target mapped at %#x", addr)
}
