package runmon

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/obs/jsontest"
)

// TestRecordsEveryFieldRoundTrip: every field of runmon's three ledger
// records survives a ledger line whole.
func TestRecordsEveryFieldRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		typ       string
		rec, read any
	}{
		{obs.LedgerReplan, &ReplanRecord{}, &ReplanRecord{}},
		{obs.LedgerAlert, &Alert{}, &Alert{}},
		{obs.LedgerPlan, &planRow{}, &planRow{}},
	} {
		if err := jsontest.FillRecord(tc.rec, 100); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		l := obs.NewEventLog(&buf)
		l.Append(obs.RecordEvent(tc.typ, tc.rec))
		events, err := obs.ReadLedger(&buf)
		if err != nil || len(events) != 1 || !obs.ReadRecord(events[0], tc.typ, tc.read) {
			t.Fatalf("%s line %q did not read back: %v", tc.typ, buf.String(), err)
		}
		if !reflect.DeepEqual(tc.read, tc.rec) {
			t.Fatalf("%s through the ledger:\n got %+v\nwant %+v", tc.typ, tc.read, tc.rec)
		}
	}
}

// TestLedgerRecordBytes pins the replan, alert and plan lines byte for byte,
// each as its writer emits it, under a fixed clock.
func TestLedgerRecordBytes(t *testing.T) {
	var buf bytes.Buffer
	l := obs.NewEventLog(&buf)
	l.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	l.Append(ReplanRecord{
		Step: 40, Trigger: AlertBudget, Stream: StreamSim, Reason: ReplanAdopted, Adopted: true,
		OldValue: 3, NewValue: 5, OldCostSec: 0.3, NewCostSec: 0.25, BudgetSec: 0.4, SpentSec: 0.1,
	}.Event())
	m := NewMonitor(testProfile(), Config{Ledger: l})
	for step := 1; step <= 8; step++ {
		m.Observe(stepEvent(step, 0.030))
		m.Observe(analysisEvent(step, "rdf", 0.001))
	}
	m.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "rdf", Step: 8, Dur: 1e6}) // blows the budget
	for _, e := range testProfile().PlanEvents() {
		l.Append(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != recordLedgerPin {
		t.Fatalf("record ledger lines moved:\n got %s\nwant %s", got, recordLedgerPin)
	}
}

const recordLedgerPin = `{"v":2,"type":"replan","name":"sim","step":40,"ts_us":0,"args":{"adopted":1,"budget_sec":0.4,"new_cost_sec":0.25,"new_value":5,"old_cost_sec":0.3,"old_value":3,"reason":0,"spent_sec":0.1,"trigger":1}}
{"v":2,"type":"alert","name":"sim","step":1,"ts_us":0,"args":{"cusum":1.7499999999999996,"direction":1,"kind":0,"observed_sec":0.03,"predicted_sec":0.01,"rel_err":1.9999999999999996}}
{"v":2,"type":"alert","name":"rdf/analyze","step":3,"ts_us":0,"args":{"cusum":1.5,"direction":0,"kind":0,"observed_sec":0.001,"predicted_sec":0.004,"rel_err":-0.75}}
{"v":2,"type":"alert","name":"budget","step":8,"ts_us":0,"args":{"cusum":0,"kind":1,"observed_sec":1.054,"predicted_sec":0.5,"rel_err":-0.75}}
{"v":2,"type":"plan","name":"sim","ts_us":0,"args":{"planned_sec":0.2,"sec_per_event":0.01,"steps":100,"threshold_sec":0.5}}
{"v":2,"type":"plan","name":"rdf/analyze","ts_us":0,"args":{"sec_per_event":0.004}}
`
