package schedd

import (
	"bytes"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/obs/jsontest"
)

// TestReqRecordEveryFieldRoundTrips: every ledger-carried field of a request
// record, each distinct, survives a reqlog line whole.
func TestReqRecordEveryFieldRoundTrips(t *testing.T) {
	var rec reqRecord
	if err := jsontest.FillRecord(&rec, 100); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	l := obs.NewEventLog(&buf)
	l.Append(obs.RecordEvent(obs.LedgerReqLog, &rec))
	events, err := obs.ReadLedger(&buf)
	var got reqRecord
	if err != nil || len(events) != 1 || !obs.ReadRecord(events[0], obs.LedgerReqLog, &got) {
		t.Fatalf("reqlog line %q did not read back: %v", buf.String(), err)
	}
	if got != rec {
		t.Fatalf("reqRecord through the ledger:\n got %+v\nwant %+v", got, rec)
	}
}

// TestReqlogBytes pins the reqlog lines of a solved miss, a cache hit and a
// rejected request byte for byte under a fixed clock.
func TestReqlogBytes(t *testing.T) {
	var buf bytes.Buffer
	l := obs.NewEventLog(&buf)
	l.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	for _, rec := range []reqRecord{
		{ID: "miss", Fingerprint: "sha256:ab", Code: 200, DurUs: 1500, QueueUs: 12, SolveUs: 1400, Nodes: 9, Objective: 41.5},
		{ID: "hit", Fingerprint: "sha256:ab", Code: 200, CacheHit: true, DurUs: 30, Objective: 41.5},
		{ID: "late", Code: 503, ErrKind: ErrQueueTimeout, Coalesced: true, DurUs: 5e6, QueueUs: 5e6},
	} {
		l.Append(obs.RecordEvent(obs.LedgerReqLog, &rec))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != reqlogPin {
		t.Fatalf("reqlog lines moved:\n got %s\nwant %s", got, reqlogPin)
	}
}

const reqlogPin = `{"v":2,"type":"reqlog","name":"miss","ts_us":0,"dur_us":1500,"args":{"cache_hit":0,"code":200,"nodes":9,"objective":41.5,"queue_us":12,"solve_us":1400}}
{"v":2,"type":"reqlog","name":"hit","ts_us":0,"dur_us":30,"args":{"cache_hit":1,"code":200,"objective":41.5}}
{"v":2,"type":"reqlog","name":"late","ts_us":0,"dur_us":5000000,"args":{"cache_hit":0,"coalesced":1,"code":503,"error_kind":4,"queue_us":5000000}}
`
