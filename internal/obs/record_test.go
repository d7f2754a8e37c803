package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// throughLedger writes e as one ledger line and parses it back.
func throughLedger(t *testing.T, e LedgerEvent) LedgerEvent {
	t.Helper()
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Append(e)
	events, err := ReadLedger(&buf)
	if err != nil || len(events) != 1 {
		t.Fatalf("ledger line %q: %d events, %v", buf.String(), len(events), err)
	}
	return events[0]
}

// codecRecord exercises every rule of the record codec.
type codecRecord struct {
	Who     string  `json:"who" ledger:"name"`
	At      int     `json:"at" ledger:"step"`
	Took    float64 `json:"took" ledger:"dur"`
	Count   int     `json:"count"`
	Ratio   float64 `json:"ratio,omitempty"`
	On      bool    `json:"on"`
	Maybe   bool    `json:"maybe,omitempty"`
	Mode    string  `json:"mode" ledger:"low|high"`
	Reason  string  `json:"reason,omitempty" ledger:"|why|because"`
	Note    string  `json:"note" ledger:"-"`
	Hidden  int     `json:"-"`
	private int
}

func TestRecordCodec(t *testing.T) {
	rec := codecRecord{Who: "k1", At: 7, Took: 12.5, Count: 3, On: true, Mode: "high", Note: "kept off", Hidden: 9, private: 1}
	e := RecordEvent("codec", rec)
	want := LedgerEvent{Type: "codec", Name: "k1", Step: 7, Dur: 12.5,
		Args: map[string]float64{"count": 3, "on": 1, "mode": 1}}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("RecordEvent:\n got %+v\nwant %+v", e, want)
	}
	if !reflect.DeepEqual(RecordEvent("codec", &rec), e) {
		t.Fatal("a record and a pointer to it encode differently")
	}

	got := codecRecord{Note: "stale", Count: 99}
	if !ReadRecord(throughLedger(t, e), "codec", &got) {
		t.Fatal("ReadRecord refused its own event")
	}
	rec.Note, rec.Hidden, rec.private = "", 0, 0
	if got != rec {
		t.Fatalf("ReadRecord:\n got %+v\nwant %+v", got, rec)
	}

	if ReadRecord(e, "other", &got) {
		t.Fatal("read an event of another type")
	}
	rec.Mode = "sideways" // not listed: written as -1, refused on read
	e = RecordEvent("codec", rec)
	if e.Args["mode"] != -1 || ReadRecord(e, "codec", &got) {
		t.Fatalf("an unlisted name wrote %g and was read back", e.Args["mode"])
	}
	e.Args["mode"] = 0.5
	if ReadRecord(e, "codec", &got) {
		t.Fatal("read a fractional name code")
	}
}

// TestRecordUncarriableFieldFails: a record with a field the codec cannot
// carry fails on its type's first use rather than dropping the field.
func TestRecordUncarriableFieldFails(t *testing.T) {
	for _, rec := range []any{
		struct {
			Label string `json:"label"` // a string with no names
		}{},
		struct {
			Bytes int64 `json:"bytes"`
		}{},
		struct {
			Steps []int `json:"steps"`
		}{},
		struct {
			Name int `json:"name" ledger:"name"` // the envelope name is a string
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: no failure", rec)
				}
			}()
			RecordEvent("bad", rec)
		}()
	}
}
