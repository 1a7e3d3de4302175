package wal

import (
	"bytes"
	"testing"
)

// TestScanResumesMidSequence: a post-rotation segment starts at
// whatever sequence number the global counter had reached — Scan must
// accept a file whose first record is deep into the sequence space,
// with gaps (a sealed segment adopted from an older multi-log node
// skips the numbers its sibling logs held).
func TestScanResumesMidSequence(t *testing.T) {
	var buf []byte
	seqs := []uint64{1000, 1001, 1005, 1100}
	for _, seq := range seqs {
		buf = AppendRecord(buf, "e0", int64(seq), seq)
	}
	recs, goodOff, err := Scan(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if goodOff != int64(len(buf)) {
		t.Fatalf("goodOff = %d, want %d", goodOff, len(buf))
	}
	if len(recs) != len(seqs) {
		t.Fatalf("records = %d, want %d", len(recs), len(seqs))
	}
	for i, r := range recs {
		if r.Seq != seqs[i] {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, seqs[i])
		}
	}
}

// TestScanMidSequenceTornTail: the torn-tail discipline holds for
// mid-sequence segments too — damage truncates to the clean prefix,
// it does not reject the whole file.
func TestScanMidSequenceTornTail(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, "e0", 1, 500)
	buf = AppendRecord(buf, "e1", 2, 501)
	clean := len(buf)
	buf = AppendRecord(buf, "e2", 3, 502)
	torn := buf[:len(buf)-5]

	recs, goodOff, err := Scan(bytes.NewReader(torn))
	if err == nil {
		t.Fatal("torn tail not reported")
	}
	if goodOff != int64(clean) {
		t.Fatalf("goodOff = %d, want %d", goodOff, clean)
	}
	if len(recs) != 2 || recs[1].Seq != 501 {
		t.Fatalf("clean prefix = %+v", recs)
	}
}
