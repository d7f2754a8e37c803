package obs

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Where a record field rides on its ledger event.
const (
	inArgs = iota
	inName
	inStep
	inDur
)

// recordField is one ledger-carried field of a record type.
type recordField struct {
	index     int
	key       string // args key: the field's json name
	omitEmpty bool
	place     int      // inArgs, or the envelope field it fills
	names     []string // a string field's names, coded by index
}

// recordTables holds each record type's field table, built on first use.
var recordTables sync.Map // reflect.Type → []recordField

func recordFields(t reflect.Type) []recordField {
	if fs, ok := recordTables.Load(t); ok {
		return fs.([]recordField)
	}
	var fs []recordField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("ledger")
		key, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || tag == "-" || key == "-" {
			continue
		}
		if key == "" {
			key = f.Name
		}
		rf := recordField{index: i, key: key, omitEmpty: strings.Contains(opts, "omitempty")}
		switch k := f.Type.Kind(); {
		case tag == "name" && k == reflect.String:
			rf.place = inName
		case tag == "step" && k == reflect.Int:
			rf.place = inStep
		case tag == "dur" && k == reflect.Float64:
			rf.place = inDur
		case tag != "" && k == reflect.String:
			rf.names = strings.Split(tag, "|")
		case tag == "" && (k == reflect.Int || k == reflect.Float64 || k == reflect.Bool):
		default:
			panic(fmt.Sprintf("obs: record %s: field %s (%s, ledger:%q) has no ledger encoding", t, f.Name, f.Type, tag))
		}
		fs = append(fs, rf)
	}
	recordTables.Store(t, fs)
	return fs
}

// RecordEvent writes rec, a record struct or a pointer to one, as a ledger
// event of type typ; ReadRecord reads it back. A record's JSON tags are its
// ledger schema:
//
//   - each field rides in args under its json name, omitempty honoured;
//   - an int or float64 is written as itself, a bool as 0 or 1;
//   - a string is written as its index in the names its ledger:"a|b|c" tag
//     lists (-1 for a name the list lacks, which ReadRecord refuses);
//   - ledger:"name" (a string), ledger:"step" (an int) and ledger:"dur" (a
//     float64) put the field in the event's envelope instead of args;
//   - ledger:"-", like json:"-", keeps a field off the ledger.
//
// Any other field panics on its type's first use, so a field added to a
// record later cannot be dropped from the ledger silently.
func RecordEvent(typ string, rec any) LedgerEvent {
	v := reflect.Indirect(reflect.ValueOf(rec))
	fs := recordFields(v.Type())
	e := LedgerEvent{Type: typ, Args: make(map[string]float64, len(fs))}
	for _, f := range fs {
		fv := v.Field(f.index)
		switch {
		case f.place == inName:
			e.Name = fv.String()
		case f.place == inStep:
			e.Step = int(fv.Int())
		case f.place == inDur:
			e.Dur = fv.Float()
		case f.omitEmpty && fv.IsZero():
		case f.names != nil:
			e.Args[f.key] = float64(slices.Index(f.names, fv.String()))
		case fv.Kind() == reflect.Int:
			e.Args[f.key] = float64(fv.Int())
		case fv.Kind() == reflect.Float64:
			e.Args[f.key] = fv.Float()
		case fv.Bool():
			e.Args[f.key] = 1
		default:
			e.Args[f.key] = 0
		}
	}
	return e
}

// ReadRecord reads an event of type typ into rec, a pointer to a record
// struct, zeroing it first: an absent arg reads as the field's zero. It
// reports false, leaving rec undefined, for an event of another type or one
// whose string code is not a name the field lists.
func ReadRecord(e LedgerEvent, typ string, rec any) bool {
	if e.Type != typ {
		return false
	}
	v := reflect.ValueOf(rec).Elem()
	v.SetZero()
	for _, f := range recordFields(v.Type()) {
		fv := v.Field(f.index)
		x, ok := e.Args[f.key]
		switch {
		case f.place == inName:
			fv.SetString(e.Name)
		case f.place == inStep:
			fv.SetInt(int64(e.Step))
		case f.place == inDur:
			fv.SetFloat(e.Dur)
		case !ok:
		case f.names != nil:
			i := int(x)
			if float64(i) != x || i < 0 || i >= len(f.names) {
				return false
			}
			fv.SetString(f.names[i])
		case fv.Kind() == reflect.Int:
			fv.SetInt(int64(x))
		case fv.Kind() == reflect.Float64:
			fv.SetFloat(x)
		default:
			fv.SetBool(x != 0)
		}
	}
	return true
}
