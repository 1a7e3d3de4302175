package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// label historical: the node has one engine since sharding left it;
// the reply carries one log-status object.
func TestWALEndpoint(t *testing.T) {
	want := WALStatus{
		Dir:        "/tmp/wal",
		Frontier:   42,
		Log:        WALLog{ActiveBytes: 128, ActiveLastSeq: 40, DurableSeq: 40, PendingRecords: 3, SealedSegments: 2, SealedBytes: 512},
		Checkpoint: &WALCheckpoint{Checkpoints: 5, LastFrontier: 37, LastEntities: 80, LastBytes: 2048, AgeSeconds: 1.5},
	}
	mux := NewAdminMux(AdminOptions{
		Registry: NewRegistry(),
		WAL:      func() WALStatus { return want },
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wal", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var got WALStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Dir != want.Dir || got.Frontier != want.Frontier || got.Log != want.Log {
		t.Fatalf("reply = %+v", got)
	}
	if !strings.Contains(rec.Body.String(), `"log": {`) {
		t.Fatalf("reply has no log object:\n%s", rec.Body.String())
	}
	if got.Checkpoint == nil || *got.Checkpoint != *want.Checkpoint {
		t.Fatalf("checkpoint = %+v", got.Checkpoint)
	}
}

func TestWALEndpointAbsentWithoutSource(t *testing.T) {
	mux := NewAdminMux(AdminOptions{Registry: NewRegistry()})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wal", nil))
	if rec.Code != 404 {
		t.Fatalf("status without WAL source = %d, want 404", rec.Code)
	}
}
