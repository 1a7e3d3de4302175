package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// SpanEvent is one timestamped lifecycle step inside a transaction
// trace.
type SpanEvent struct {
	T      time.Time `json:"t"`
	Kind   string    `json:"kind"`
	Entity string    `json:"entity,omitempty"`
	Detail string    `json:"detail,omitempty"`
	// Lost is the rollback depth for "rollback" events.
	Lost int64 `json:"lost,omitempty"`
}

// TxnTrace is one transaction's recorded lifecycle: register, each
// claim, wait, grant, rollback, and finally commit or abort.
type TxnTrace struct {
	Txn     txn.ID      `json:"txn"`
	Program string      `json:"program"`
	Start   time.Time   `json:"start"`
	End     time.Time   `json:"end"`
	Outcome string      `json:"outcome,omitempty"` // "commit" or "abort"; empty while active
	Events  []SpanEvent `json:"events"`
	// Truncated reports that the per-transaction event cap was hit and
	// later events were dropped.
	Truncated bool `json:"truncated,omitempty"`
}

// Dur returns the trace's end-to-end duration (zero while active).
func (t *TxnTrace) Dur() time.Duration {
	if t.End.IsZero() {
		return 0
	}
	return t.End.Sub(t.Start)
}

// maxTraceEvents bounds one transaction's recorded events so a
// pathological retry loop cannot grow a trace without bound.
const maxTraceEvents = 512

// Tracer records opt-in per-transaction lifecycle traces from the
// engine event stream. It is off by default: while disabled, OnEvent
// returns after a single atomic load, so chaining a Tracer into a
// production event path is near-free. Completed traces are retained in
// a fixed-size ring (oldest evicted first).
//
// Chain OnEvent onto core.Config.OnEvent; all methods are safe for
// concurrent use.
type Tracer struct {
	enabled atomic.Bool
	cap     int

	now func() time.Time

	mu      sync.Mutex
	active  map[txn.ID]*TxnTrace
	ring    []*TxnTrace
	next    int
	dropped int64
}

// NewTracer returns a disabled tracer retaining up to capacity
// completed traces (capacity <= 0 means 256).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{
		cap:    capacity,
		now:    time.Now,
		active: map[txn.ID]*TxnTrace{},
	}
}

// SetEnabled turns tracing on or off. Turning it off drops in-flight
// traces (completed ones stay in the ring).
func (tr *Tracer) SetEnabled(on bool) {
	tr.enabled.Store(on)
	if !on {
		tr.mu.Lock()
		tr.active = map[txn.ID]*TxnTrace{}
		tr.mu.Unlock()
	}
}

// Enabled reports whether the tracer is recording.
func (tr *Tracer) Enabled() bool { return tr.enabled.Load() }

// OnEvent consumes one engine event.
func (tr *Tracer) OnEvent(e core.Event) {
	if !tr.enabled.Load() {
		return
	}
	now := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if e.Kind == core.EventRegister {
		tr.active[e.Txn] = &TxnTrace{
			Txn: e.Txn, Program: e.Detail, Start: now,
			Events: []SpanEvent{{T: now, Kind: e.Kind.String(), Detail: e.Detail}},
		}
		return
	}
	t := tr.active[e.Txn]
	if t == nil {
		return // registered before tracing was enabled
	}
	if len(t.Events) < maxTraceEvents {
		se := SpanEvent{T: now, Kind: e.Kind.String(), Entity: e.Entity, Detail: e.Detail}
		if e.Kind == core.EventRollback {
			se.Lost = e.Lost
			se.Detail = fmt.Sprintf("to lock state %d", e.ToLockState)
		}
		t.Events = append(t.Events, se)
	} else {
		t.Truncated = true
		tr.dropped++
	}
	switch e.Kind {
	case core.EventCommit, core.EventAbort:
		t.End = now
		t.Outcome = e.Kind.String()
		delete(tr.active, e.Txn)
		tr.retain(t)
	}
}

// retain stores a completed trace in the ring. Caller holds mu.
func (tr *Tracer) retain(t *TxnTrace) {
	if len(tr.ring) < tr.cap {
		tr.ring = append(tr.ring, t)
		return
	}
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % tr.cap
}

// Snapshot returns copies of the currently active traces and the
// retained completed ones, oldest completed first.
func (tr *Tracer) Snapshot() (active, completed []TxnTrace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.active {
		active = append(active, cloneTrace(t))
	}
	sort.Slice(active, func(i, j int) bool { return active[i].Txn < active[j].Txn })
	n := len(tr.ring)
	for i := 0; i < n; i++ {
		idx := i
		if n == tr.cap {
			idx = (tr.next + i) % n
		}
		completed = append(completed, cloneTrace(tr.ring[idx]))
	}
	return active, completed
}

func cloneTrace(t *TxnTrace) TxnTrace {
	c := *t
	c.Events = append([]SpanEvent(nil), t.Events...)
	return c
}

// WriteJSON dumps the snapshot as one JSON object.
func (tr *Tracer) WriteJSON(w io.Writer) error {
	active, completed := tr.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"enabled":   tr.Enabled(),
		"active":    active,
		"completed": completed,
	})
}

// WriteText dumps the snapshot as an indented human-readable listing.
func (tr *Tracer) WriteText(w io.Writer) error {
	active, completed := tr.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "tracer enabled=%v active=%d completed=%d\n", tr.Enabled(), len(active), len(completed))
	dump := func(label string, ts []TxnTrace) {
		for i := range ts {
			t := &ts[i]
			fmt.Fprintf(&b, "%s %v %s", label, t.Txn, t.Program)
			if t.Outcome != "" {
				fmt.Fprintf(&b, " %s in %v", t.Outcome, t.Dur().Round(time.Microsecond))
			}
			b.WriteByte('\n')
			for _, e := range t.Events {
				fmt.Fprintf(&b, "  %s %-10s", e.T.Format("15:04:05.000000"), e.Kind)
				if e.Entity != "" {
					fmt.Fprintf(&b, " %s", e.Entity)
				}
				if e.Detail != "" {
					fmt.Fprintf(&b, " (%s)", e.Detail)
				}
				if e.Lost != 0 {
					fmt.Fprintf(&b, " lost=%d", e.Lost)
				}
				b.WriteByte('\n')
			}
			if t.Truncated {
				b.WriteString("  ... truncated\n")
			}
		}
	}
	dump("active", active)
	dump("done", completed)
	_, err := io.WriteString(w, b.String())
	return err
}
