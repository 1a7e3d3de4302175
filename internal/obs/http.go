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
	// Engine provides the live snapshots behind /debug/waitfor and
	// /debug/txns. Either core.Snapshotter (unsharded System) or
	// core.ShardSnapshotter (sharded engine) is honored; nil or any
	// other engine disables the inspector endpoints with 404s.
	Engine core.Engine
	// Tracer, when non-nil, serves /debug/trace.
	Tracer *Tracer
	// Queued, when non-nil, is appended to /debug/txns output (the
	// sharded engine's admission queue).
	Queued func() []KV
	// Owners, when non-nil, annotates each /debug/txns entry with the
	// connection and stream currently driving that transaction (wire it
	// to the network server's Owners method) — the tool for finding
	// which socket a stuck stream belongs to.
	Owners func() map[txn.ID]TxnOwner
	// WAL, when non-nil, serves /debug/wal: per-shard log accounting
	// and checkpoint status. Wire it to the durability layer; nil
	// disables the endpoint with a 404.
	WAL func() WALStatus
}

// WALShard is one shard log's accounting in /debug/wal. It has
// durable.ShardLogStatus's fields, so one converts to the other; obs
// keeps its own copy so the admin surface does not depend on the
// durability layer.
type WALShard struct {
	Shard          int    `json:"shard"`
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

// WALStatus is /debug/wal's reply: where the logs live, the global
// sequence frontier, per-shard segment accounting, and — when a
// checkpointer is running — its status.
type WALStatus struct {
	Dir        string         `json:"dir"`
	Frontier   uint64         `json:"frontier"`
	Shards     []WALShard     `json:"shards"`
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

// SnapshotsOf extracts per-shard debug snapshots from any engine that
// supports them: a sharded engine yields one per shard, an unsharded
// System yields a single snapshot at shard 0.
func SnapshotsOf(eng core.Engine) ([]core.DebugSnapshot, bool) {
	switch e := eng.(type) {
	case core.ShardSnapshotter:
		return e.DebugSnapshots(), true
	case core.Snapshotter:
		return []core.DebugSnapshot{e.DebugSnapshot()}, true
	default:
		return nil, false
	}
}

// NewAdminMux builds the admin HTTP surface:
//
//	/metrics         Prometheus text (or expvar-style JSON with
//	                 ?format=json / Accept: application/json)
//	/debug/waitfor   live wait-for graph, JSON (default) or Graphviz
//	                 DOT (?format=dot); ?shard=k selects one shard,
//	                 default is all shards merged
//	/debug/txns      active transaction table with held/awaited locks
//	                 and current rollback cost, JSON or ?format=text
//	/debug/trace     transaction tracer dump (when a Tracer is wired);
//	                 ?enable=true / ?enable=false toggles recording
//	/debug/wal       per-shard log bytes/sequences and checkpoint
//	                 status, JSON (when a WAL source is wired)
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
		snaps, ok := selectSnapshots(w, r, o.Engine)
		if !ok {
			return
		}
		if r.URL.Query().Get("format") == "dot" {
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			fmt.Fprint(w, WaitForDOT(snaps))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, waitforJSON(snaps))
	})
	mux.HandleFunc("/debug/txns", func(w http.ResponseWriter, r *http.Request) {
		snaps, ok := selectSnapshots(w, r, o.Engine)
		if !ok {
			return
		}
		var queued []KV
		if o.Queued != nil {
			queued = o.Queued()
		}
		var owners map[txn.ID]TxnOwner
		if o.Owners != nil {
			owners = o.Owners()
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, txnsText(snaps, queued, owners))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, txnsJSON(snaps, queued, owners))
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

// selectSnapshots takes the engine snapshots and applies the ?shard=k
// filter; it writes the HTTP error itself when it returns !ok.
func selectSnapshots(w http.ResponseWriter, r *http.Request, eng core.Engine) ([]core.DebugSnapshot, bool) {
	snaps, ok := SnapshotsOf(eng)
	if !ok {
		http.Error(w, "engine does not support snapshots", http.StatusNotFound)
		return nil, false
	}
	if v := r.URL.Query().Get("shard"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 || k >= len(snaps) {
			http.Error(w, fmt.Sprintf("shard must be in [0, %d)", len(snaps)), http.StatusBadRequest)
			return nil, false
		}
		snaps = snaps[k : k+1]
	}
	return snaps, true
}

// WaitForDOT renders the wait-for arcs of the given snapshots as one
// Graphviz digraph, arcs drawn in the paper's holder -> waiter
// orientation (the holder blocks the waiter) and labeled with the
// contested entity. Each shard becomes a cluster when more than one
// snapshot is given.
func WaitForDOT(snaps []core.DebugSnapshot) string {
	var b strings.Builder
	b.WriteString("digraph waitfor {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	cluster := len(snaps) > 1
	for _, s := range snaps {
		indent := "  "
		if cluster {
			fmt.Fprintf(&b, "  subgraph cluster_shard%d {\n    label=\"shard %d\";\n", s.Shard, s.Shard)
			indent = "    "
		}
		for _, t := range s.Txns {
			if t.Status == core.StatusCommitted.String() {
				continue
			}
			shape := "ellipse"
			if t.WaitingOn != "" {
				shape = "box"
			}
			fmt.Fprintf(&b, "%s\"T%d\" [label=\"T%d %s\\nstate %d\", shape=%s];\n",
				indent, t.ID, t.ID, t.Program, t.StateIndex, shape)
		}
		for _, a := range s.Arcs {
			// Flip waiter->holder storage into the paper's holder->waiter
			// drawing.
			fmt.Fprintf(&b, "%s\"T%d\" -> \"T%d\" [label=%q];\n", indent, a.Holder, a.Waiter, a.Entity)
		}
		if cluster {
			b.WriteString("  }\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// waitforJSON shapes /debug/waitfor's JSON reply: per-shard snapshots
// plus a merged arc list.
func waitforJSON(snaps []core.DebugSnapshot) map[string]any {
	type shardView struct {
		Shard int            `json:"shard"`
		Arcs  []core.WaitArc `json:"arcs"`
	}
	views := make([]shardView, 0, len(snaps))
	var merged []core.WaitArc
	for _, s := range snaps {
		arcs := s.Arcs
		if arcs == nil {
			arcs = []core.WaitArc{}
		}
		views = append(views, shardView{Shard: s.Shard, Arcs: arcs})
		merged = append(merged, arcs...)
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Waiter != b.Waiter {
			return a.Waiter < b.Waiter
		}
		if a.Holder != b.Holder {
			return a.Holder < b.Holder
		}
		return a.Entity < b.Entity
	})
	if merged == nil {
		merged = []core.WaitArc{}
	}
	return map[string]any{"shards": views, "merged": merged}
}

// txnsJSON shapes /debug/txns's JSON reply.
func txnsJSON(snaps []core.DebugSnapshot, queued []KV, owners map[txn.ID]TxnOwner) map[string]any {
	type txnView struct {
		core.TxnSnapshot
		Shard int       `json:"shard"`
		Owner *TxnOwner `json:"owner,omitempty"`
	}
	txns := []txnView{}
	for _, s := range snaps {
		for _, t := range s.Txns {
			v := txnView{TxnSnapshot: t, Shard: s.Shard}
			if o, ok := owners[t.ID]; ok {
				o := o
				v.Owner = &o
			}
			txns = append(txns, v)
		}
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].ID < txns[j].ID })
	out := map[string]any{"txns": txns}
	if queued != nil {
		q := map[string]int64{}
		for _, kv := range queued {
			q[kv.Name] = kv.Val
		}
		out["admissionQueue"] = q
	}
	return out
}

// txnsText renders the transaction table for humans.
func txnsText(snaps []core.DebugSnapshot, queued []KV, owners map[txn.ID]TxnOwner) string {
	var b strings.Builder
	for _, s := range snaps {
		fmt.Fprintf(&b, "shard %d: %d txn(s)\n", s.Shard, len(s.Txns))
		for _, t := range s.Txns {
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
	}
	for _, kv := range queued {
		fmt.Fprintf(&b, "queued %s = %d\n", kv.Name, kv.Val)
	}
	return b.String()
}
