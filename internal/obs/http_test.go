package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"partialrollback/internal/core"
	"partialrollback/internal/entity"
	"partialrollback/internal/txn"
)

// blockedSystem builds a System with T1 holding X(a) and T2 blocked on
// it — a one-arc wait-for graph for the inspector endpoints.
func blockedSystem(t *testing.T) *core.System {
	t.Helper()
	store := entity.NewUniformStore("e", 0, 0)
	store.Define("a", 0)
	sys := core.New(core.Config{Store: store, Strategy: core.MCS})
	p1 := txn.NewProgram("holder").LockX("a").MustBuild()
	p2 := txn.NewProgram("waiter").LockX("a").MustBuild()
	id1, err := sys.Register(p1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := sys.Register(p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(id1); err != nil { // T1 takes X(a)
		t.Fatal(err)
	}
	res, err := sys.Step(id2) // T2 blocks on a
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Blocked {
		t.Fatalf("T2 step outcome = %v, want Blocked", res.Outcome)
	}
	return sys
}

func newTestMux(t *testing.T, eng *core.System) *http.ServeMux {
	t.Helper()
	reg := NewRegistry()
	reg.NewCounter("pr_grants_total", "").Add(3)
	tr := NewTracer(4)
	return NewAdminMux(AdminOptions{Registry: reg, Engine: eng, Tracer: tr})
}

func get(t *testing.T, mux *http.ServeMux, url string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header()
}

func TestMetricsEndpoint(t *testing.T) {
	mux := newTestMux(t, nil)

	code, body, hdr := get(t, mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(body, "pr_grants_total 3") {
		t.Errorf("prometheus body missing counter:\n%s", body)
	}

	code, body, hdr = get(t, mux, "/metrics?format=json")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("json: status=%d content-type=%q", code, hdr.Get("Content-Type"))
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out["pr_grants_total"].(float64) != 3 {
		t.Errorf("json counter = %v", out["pr_grants_total"])
	}

	// Accept-header negotiation also selects JSON.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if !strings.Contains(rec.Header().Get("Content-Type"), "json") {
		t.Errorf("Accept negotiation ignored: %q", rec.Header().Get("Content-Type"))
	}
}

// label historical: the node has one engine since sharding left it;
// the reply is one arc list.
func TestWaitForEndpoint(t *testing.T) {
	sys := blockedSystem(t)
	mux := newTestMux(t, sys)

	code, body, _ := get(t, mux, "/debug/waitfor")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var out map[string][]core.WaitArc
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(out) != 1 || len(out["arcs"]) != 1 {
		t.Fatalf("reply = %+v, want one key \"arcs\" with one arc", out)
	}
	arc := out["arcs"][0]
	if arc.Waiter != 2 || arc.Holder != 1 || arc.Entity != "a" {
		t.Fatalf("arc = %+v, want T2 waits for T1 over a", arc)
	}

	code, body, hdr := get(t, mux, "/debug/waitfor?format=dot")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "graphviz") {
		t.Fatalf("dot: status=%d content-type=%q", code, hdr.Get("Content-Type"))
	}
	// Paper orientation: holder -> waiter.
	for _, want := range []string{"digraph waitfor", `"T1" -> "T2" [label="a"]`, "shape=box"} {
		if !strings.Contains(body, want) {
			t.Errorf("dot output missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "subgraph") {
		t.Errorf("dot output has clusters:\n%s", body)
	}
}

// label historical: the node has one engine since sharding left it;
// entries carry no shard field.
func TestTxnsEndpoint(t *testing.T) {
	sys := blockedSystem(t)
	mux := newTestMux(t, sys)

	code, body, _ := get(t, mux, "/debug/txns")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var out struct {
		Txns []core.TxnSnapshot `json:"txns"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(out.Txns) != 2 {
		t.Fatalf("txns = %d, want 2", len(out.Txns))
	}
	holder, waiter := out.Txns[0], out.Txns[1]
	if holder.Program != "holder" || len(holder.Held) != 1 || holder.Held[0].Entity != "a" || holder.Held[0].Mode != "X" {
		t.Errorf("holder snapshot = %+v", holder)
	}
	if waiter.Program != "waiter" || waiter.WaitingOn != "a" || waiter.Status != "waiting" {
		t.Errorf("waiter snapshot = %+v", waiter)
	}
	if strings.Contains(body, `"shard"`) || strings.Contains(body, "admissionQueue") {
		t.Errorf("txns reply carries sharding fields:\n%s", body)
	}

	code, body, _ = get(t, mux, "/debug/txns?format=text")
	if code != http.StatusOK {
		t.Fatalf("text status = %d", code)
	}
	for _, want := range []string{"2 txn(s)", "held=a:X", "waiting-on=a"} {
		if !strings.Contains(body, want) {
			t.Errorf("text table missing %q:\n%s", want, body)
		}
	}
}

func TestInspectorWithoutEngine(t *testing.T) {
	mux := newTestMux(t, nil)
	if code, _, _ := get(t, mux, "/debug/waitfor"); code != http.StatusNotFound {
		t.Errorf("waitfor without engine = %d, want 404", code)
	}
	if code, _, _ := get(t, mux, "/debug/txns"); code != http.StatusNotFound {
		t.Errorf("txns without engine = %d, want 404", code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	mux := newTestMux(t, nil)

	// Toggle on, then dump.
	code, body, _ := get(t, mux, "/debug/trace?enable=true")
	if code != http.StatusOK || !strings.Contains(body, `"enabled": true`) {
		t.Fatalf("enable: status=%d body=%s", code, body)
	}
	code, body, _ = get(t, mux, "/debug/trace?format=text")
	if code != http.StatusOK || !strings.Contains(body, "tracer enabled=true") {
		t.Fatalf("text: status=%d body=%s", code, body)
	}
	if code, _, _ := get(t, mux, "/debug/trace?enable=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus enable = %d, want 400", code)
	}
}

func TestPprofMounted(t *testing.T) {
	mux := newTestMux(t, nil)
	code, body, _ := get(t, mux, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profiles") {
		t.Fatalf("pprof index: status=%d", code)
	}
}

// label historical: the name predates the single-engine inspector;
// inspect now takes one *core.System and yields its one snapshot.
func TestSnapshotsOf(t *testing.T) {
	rec := httptest.NewRecorder()
	if _, ok := inspect(rec, nil); ok || rec.Code != http.StatusNotFound {
		t.Errorf("nil engine: ok=%v status=%d, want a 404", ok, rec.Code)
	}
	sys := blockedSystem(t)
	snap, ok := inspect(httptest.NewRecorder(), sys)
	if !ok || len(snap.Txns) != 2 || len(snap.Arcs) != 1 {
		t.Fatalf("System snapshot: ok=%v txns=%d arcs=%d", ok, len(snap.Txns), len(snap.Arcs))
	}
}
