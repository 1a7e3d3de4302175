package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"partialrollback/internal/core"
	"partialrollback/internal/txn"
)

// AdminOptions wires an admin mux to a running engine.
type AdminOptions struct {
	// Registry serves /metrics. Required.
	Registry *Registry
	// Engine provides the live snapshot behind /debug/waitfor and
	// /debug/txns; nil disables the inspector endpoints with 404s.
	Engine *core.System
	// Tracer, when non-nil, serves /debug/trace.
	Tracer *Tracer
	// Owners, when non-nil, annotates each /debug/txns entry with the
	// connection and stream currently driving that transaction (wire it
	// to the network server's Owners method) — the tool for finding
	// which socket a stuck stream belongs to.
	Owners func() map[txn.ID]TxnOwner
	// WAL, when non-nil, serves /debug/wal: log accounting and
	// checkpoint status. Wire it to the durability layer; nil disables
	// the endpoint with a 404.
	WAL func() WALStatus
}

// WALLog is the log's accounting in /debug/wal. It has
// durable.LogStatus's fields, so one converts to the other; obs keeps
// its own copy so the admin surface does not depend on the durability
// layer.
type WALLog struct {
	ActiveBytes    int64  `json:"activeBytes"`
	ActiveLastSeq  uint64 `json:"activeLastSeq"`
	DurableSeq     uint64 `json:"durableSeq"`
	PendingRecords int    `json:"pendingRecords"`
	SealedSegments int    `json:"sealedSegments"`
	SealedBytes    int64  `json:"sealedBytes"`
}

// WALCheckpoint is /debug/wal's checkpoint section, mirroring
// checkpoint.Status with a derived age.
type WALCheckpoint struct {
	Checkpoints  int64   `json:"checkpoints"`
	LastFrontier uint64  `json:"lastFrontier"`
	LastEntities int     `json:"lastEntities"`
	LastBytes    int64   `json:"lastBytes"`
	LastUnix     int64   `json:"lastUnix"`
	AgeSeconds   float64 `json:"ageSeconds"`
	Errors       int64   `json:"errors"`
}

// WALStatus is /debug/wal's reply: where the log lives, the sequence
// frontier, the log's segment accounting, and — when a checkpointer is
// running — its status.
type WALStatus struct {
	Dir        string         `json:"dir"`
	Frontier   uint64         `json:"frontier"`
	Log        WALLog         `json:"log"`
	Checkpoint *WALCheckpoint `json:"checkpoint,omitempty"`
}

// TxnOwner identifies the connection and stream driving a transaction,
// as the network server's Owners method reports it.
type TxnOwner struct {
	// Conn is the connection's serial number (1-based accept order).
	Conn int64 `json:"conn"`
	// Addr is the connection's remote address.
	Addr string `json:"addr"`
	// Stream is the client-chosen stream ID.
	Stream uint32 `json:"stream"`
}

// NewAdminMux builds the admin HTTP surface:
//
//	/metrics         Prometheus text (or expvar-style JSON with
//	                 ?format=json / Accept: application/json)
//	/debug/waitfor   live wait-for graph, JSON (default) or Graphviz
//	                 DOT (?format=dot)
//	/debug/txns      active transaction table with held/awaited locks
//	                 and current rollback cost, JSON or ?format=text
//	/debug/trace     transaction tracer dump (when a Tracer is wired);
//	                 ?enable=true / ?enable=false toggles recording
//	/debug/wal       log bytes/sequences and checkpoint status, JSON
//	                 (when a WAL source is wired)
//	/debug/pprof/*   the standard net/http/pprof handlers
//
// It panics if Registry is nil.
func NewAdminMux(o AdminOptions) *http.ServeMux {
	if o.Registry == nil {
		panic("obs: AdminOptions.Registry is required")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			_ = o.Registry.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/waitfor", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := inspect(w, o.Engine)
		if !ok {
			return
		}
		if r.URL.Query().Get("format") == "dot" {
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			fmt.Fprint(w, WaitForDOT(snap))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, waitforJSON(snap))
	})
	mux.HandleFunc("/debug/txns", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := inspect(w, o.Engine)
		if !ok {
			return
		}
		var owners map[txn.ID]TxnOwner
		if o.Owners != nil {
			owners = o.Owners()
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, txnsText(snap, owners))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, txnsJSON(snap, owners))
	})
	if o.Tracer != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			if v := r.URL.Query().Get("enable"); v != "" {
				on, err := strconv.ParseBool(v)
				if err != nil {
					http.Error(w, "enable must be a boolean", http.StatusBadRequest)
					return
				}
				o.Tracer.SetEnabled(on)
			}
			if r.URL.Query().Get("format") == "text" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_ = o.Tracer.WriteText(w)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = o.Tracer.WriteJSON(w)
		})
	}
	if o.WAL != nil {
		mux.HandleFunc("/debug/wal", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, o.WAL())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// inspect takes the engine snapshot; it writes the HTTP error itself
// when it returns !ok.
func inspect(w http.ResponseWriter, eng *core.System) (core.DebugSnapshot, bool) {
	if eng == nil {
		http.Error(w, "no engine wired", http.StatusNotFound)
		return core.DebugSnapshot{}, false
	}
	return eng.DebugSnapshot(), true
}

// WaitForDOT renders the snapshot's wait-for arcs as a Graphviz
// digraph, arcs drawn in the paper's holder -> waiter orientation (the
// holder blocks the waiter) and labeled with the contested entity.
func WaitForDOT(snap core.DebugSnapshot) string {
	var b strings.Builder
	b.WriteString("digraph waitfor {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	for _, t := range snap.Txns {
		if t.Status == core.StatusCommitted.String() {
			continue
		}
		shape := "ellipse"
		if t.WaitingOn != "" {
			shape = "box"
		}
		fmt.Fprintf(&b, "  \"T%d\" [label=\"T%d %s\\nstate %d\", shape=%s];\n",
			t.ID, t.ID, t.Program, t.StateIndex, shape)
	}
	for _, a := range snap.Arcs {
		// Flip waiter->holder storage into the paper's holder->waiter
		// drawing.
		fmt.Fprintf(&b, "  \"T%d\" -> \"T%d\" [label=%q];\n", a.Holder, a.Waiter, a.Entity)
	}
	b.WriteString("}\n")
	return b.String()
}

// waitforJSON shapes /debug/waitfor's JSON reply: the arc list, sorted.
func waitforJSON(snap core.DebugSnapshot) map[string]any {
	arcs := append([]core.WaitArc{}, snap.Arcs...)
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.Waiter != b.Waiter {
			return a.Waiter < b.Waiter
		}
		if a.Holder != b.Holder {
			return a.Holder < b.Holder
		}
		return a.Entity < b.Entity
	})
	return map[string]any{"arcs": arcs}
}

// txnsJSON shapes /debug/txns's JSON reply.
func txnsJSON(snap core.DebugSnapshot, owners map[txn.ID]TxnOwner) map[string]any {
	type txnView struct {
		core.TxnSnapshot
		Owner *TxnOwner `json:"owner,omitempty"`
	}
	txns := make([]txnView, 0, len(snap.Txns))
	for _, t := range snap.Txns {
		v := txnView{TxnSnapshot: t}
		if o, ok := owners[t.ID]; ok {
			v.Owner = &o
		}
		txns = append(txns, v)
	}
	return map[string]any{"txns": txns}
}

// txnsText renders the transaction table for humans.
func txnsText(snap core.DebugSnapshot, owners map[txn.ID]TxnOwner) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d txn(s)\n", len(snap.Txns))
	for _, t := range snap.Txns {
		fmt.Fprintf(&b, "  T%-5d %-16s %-9s state=%d locks=%d restart-cost=%d",
			t.ID, t.Program, t.Status, t.StateIndex, t.LockIndex, t.RestartCost)
		if len(t.Held) > 0 {
			held := make([]string, len(t.Held))
			for i, h := range t.Held {
				held[i] = h.Entity + ":" + h.Mode
			}
			fmt.Fprintf(&b, " held=%s", strings.Join(held, ","))
		}
		if t.WaitingOn != "" {
			fmt.Fprintf(&b, " waiting-on=%s", t.WaitingOn)
		}
		if o, ok := owners[t.ID]; ok {
			fmt.Fprintf(&b, " conn=%d(%s) stream=%d", o.Conn, o.Addr, o.Stream)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
