package schedd

import (
	"strconv"

	"insitu/internal/obs"
)

// A reply is appended, not reflected: appendHead and appendTail write a
// SolveResponse byte for byte as json.Encoder with SetIndent("", "  ") does —
// field order and omitempty as tagged, null for a nil slice, HTML escaping
// on, invalid UTF-8 replaced, and the first non-finite float in field order
// the error encoding/json reports.

// EncodeResponse returns the document r as the daemon writes it.
func EncodeResponse(r *SolveResponse) ([]byte, error) {
	var w replyWriter
	w.appendHead(&r.responseHead)
	w.appendTail(r)
	return w.b, w.err
}

// appendHead writes a reply's six request keys, up to the comma before
// "objective".
func (w *replyWriter) appendHead(h *responseHead) {
	w.b, w.depth, w.empty = append(w.b, '{'), 1, true
	w.int("schedd_v", int64(h.Schema), always)
	w.str("request_id", h.RequestID, always)
	w.str("fingerprint", h.Fingerprint, omitEmpty)
	w.bool("cache_hit", h.CacheHit, always)
	w.bool("coalesced", h.Coalesced, omitEmpty)
	w.float("cache_age_sec", h.CacheAgeSec, omitEmpty)
}

// appendTail writes the rest, from that comma to the closing brace and
// newline.
func (w *replyWriter) appendTail(r *SolveResponse) {
	w.depth, w.empty = 1, false
	w.float("objective", r.Objective, always)
	w.float("total_time_sec", r.TotalTimeSec, always)
	w.int("peak_memory_bytes", r.PeakMemoryBytes, always)
	if w.open("schedules", '[', r.Schedules == nil) {
		for _, s := range r.Schedules {
			w.open("", '{', false)
			w.str("name", s.Name, always)
			w.bool("enabled", s.Enabled, always)
			w.int("count", int64(s.Count), always)
			w.int("output_every", int64(s.OutputEvery), omitEmpty)
			w.int("outputs", int64(s.Outputs), omitEmpty)
			w.ints("analysis_steps", s.AnalysisSteps)
			w.ints("output_steps", s.OutputSteps)
			w.float("predicted_time_sec", s.PredictedTimeSec, always)
			w.int("peak_memory_bytes", s.PeakMemoryBytes, always)
			w.close('}')
		}
		w.close(']')
	}
	v := &r.Solver
	w.open("solver", '{', false)
	w.int("nodes", int64(v.Nodes), always)
	w.int("relaxations", int64(v.Relaxations), always)
	w.int("pivots", int64(v.Pivots), always)
	w.float("solve_time_sec", v.SolveTimeSec, always)
	w.float("bound", v.Bound, always)
	w.int("warm_solves", int64(v.WarmSolves), always)
	w.int("cold_solves", int64(v.ColdSolves), always)
	w.int("fallback_colds", int64(v.FallbackColds), omitEmpty)
	w.int("warm_infeasibles", int64(v.WarmInfeasibles), omitEmpty)
	w.int("primal_pivots", int64(v.PrimalPivots), omitEmpty)
	w.int("dual_pivots", int64(v.DualPivots), omitEmpty)
	w.int("refactorizations", int64(v.Refactorizations), omitEmpty)
	w.int("eta_peak", int64(v.EtaPeak), omitEmpty)
	w.close('}')
	if e := r.Explain; e != nil {
		w.open("explain", '{', false)
		w.floatPtr("time_slack_sec", e.TimeSlackSec)
		w.floatPtr("mem_slack_bytes", e.MemSlackBytes)
		if w.open("attributions", '[', e.Attributions == nil) {
			for _, a := range e.Attributions {
				w.open("", '{', false)
				w.str("name", a.Name, always)
				w.bool("enabled", a.Enabled, always)
				w.int("count", int64(a.Count), always)
				w.int("max_count", int64(a.MaxCount), always)
				w.str("binding", a.Binding, omitEmpty)
				w.floatPtr("binding_slack", a.BindingSlack)
				w.bool("forced_feasible", a.ForcedFeasible, omitEmpty)
				w.float("forced_delta", a.ForcedDelta, omitEmpty)
				w.str("forced_violation", a.ForcedViolation, omitEmpty)
				if len(a.Conflict) > 0 && w.open("conflict", '[', false) {
					for _, c := range a.Conflict {
						w.str("", c, always)
					}
					w.close(']')
				}
				w.close('}')
			}
			w.close(']')
		}
		w.close('}')
	}
	if r.Error != nil {
		w.open("error", '{', false)
		w.str("kind", r.Error.Kind, always)
		w.str("message", r.Error.Message, always)
		w.close('}')
	}
	w.close('}')
	w.b = append(w.b, '\n')
}

// replyWriter appends an indented JSON document: each member (a key and its
// value, or an array element) on its own line, an empty object or array as {}
// or []. The last argument of a member's writer is its field's omitempty tag.
type replyWriter struct {
	b     []byte
	depth int
	empty bool  // the innermost object or array has no member yet
	err   error // the first non-finite float
}

const always, omitEmpty = false, true

const newline = "\n                " // and the indent of up to eight levels

// next starts a member of the innermost object or array; an element's key is
// "".
func (w *replyWriter) next(key string) {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.b, w.empty = append(w.b, newline[:1+2*w.depth]...), false
	if key != "" {
		w.b = append(append(append(w.b, '"'), key...), `": `...)
	}
}

// open starts an object or array member, or writes null for a nil slice and
// reports false.
func (w *replyWriter) open(key string, c byte, isNil bool) bool {
	w.next(key)
	if isNil {
		w.b = append(w.b, "null"...)
		return false
	}
	w.b, w.depth, w.empty = append(w.b, c), w.depth+1, true
	return true
}

func (w *replyWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.b = append(w.b, newline[:1+2*w.depth]...)
	}
	w.b, w.empty = append(w.b, c), false
}

func (w *replyWriter) str(key, s string, omit bool) {
	if s != "" || !omit {
		w.next(key)
		w.b = obs.AppendJSONString(w.b, s, true)
	}
}

func (w *replyWriter) int(key string, n int64, omit bool) {
	if n != 0 || !omit {
		w.next(key)
		w.b = strconv.AppendInt(w.b, n, 10)
	}
}

func (w *replyWriter) bool(key string, v, omit bool) {
	if v || !omit {
		w.next(key)
		w.b = strconv.AppendBool(w.b, v)
	}
}

func (w *replyWriter) float(key string, f float64, omit bool) {
	if f != 0 || !omit {
		w.next(key)
		var err error
		if w.b, err = obs.AppendJSONFloat(w.b, f); w.err == nil {
			w.err = err
		}
	}
}

// floatPtr writes an omitempty *float64: nothing when it is nil.
func (w *replyWriter) floatPtr(key string, f *float64) {
	if f != nil {
		w.float(key, *f, always)
	}
}

// ints writes an omitempty []int: nothing when it is empty.
func (w *replyWriter) ints(key string, ns []int) {
	if len(ns) > 0 && w.open(key, '[', false) {
		for _, n := range ns {
			w.int("", int64(n), always)
		}
		w.close(']')
	}
}
