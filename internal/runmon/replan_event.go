package runmon

import "insitu/internal/obs"

// ReplanSchemaVersion is carried in every replan event's args ("replan_v"),
// so downstream consumers can gate on the payload layout independently of
// the ledger line schema — the same convention the alert event uses.
const ReplanSchemaVersion = 1

// Replan decision reasons. Exactly one is carried by every replan event:
// "adopted" swaps the schedule, every other reason keeps the incumbent and
// documents why.
const (
	ReplanAdopted       = "adopted"        // the re-solved schedule replaced the incumbent
	ReplanNoImprovement = "no_improvement" // the re-solve did not beat the incumbent by the gate
	ReplanInfeasible    = "infeasible"     // the remaining horizon admits no feasible schedule
	ReplanHorizon       = "horizon"        // the trigger arrived with no steps left to reschedule
	ReplanLimit         = "limit"          // the replan-count cap was reached
)

// ReplanRecord is one rolling-horizon reschedule decision, the payload of a
// schema-versioned "replan" ledger event. internal/replan writes these; the
// monitor collects them (live or from a ledger replay) into the snapshot's
// replan timeline.
type ReplanRecord struct {
	Step       int     `json:"step"`         // simulation step the decision was made after
	Trigger    string  `json:"trigger"`      // alert kind that woke the replanner (drift|budget)
	Stream     string  `json:"stream"`       // residual stream of the triggering alert
	Reason     string  `json:"reason"`       // one of the Replan* reasons
	Adopted    bool    `json:"adopted"`      // true exactly when Reason == ReplanAdopted
	OldValue   float64 `json:"old_value"`    // incumbent remaining-horizon objective
	NewValue   float64 `json:"new_value"`    // re-solved remaining-horizon objective (0 unless solved)
	OldCostSec float64 `json:"old_cost_sec"` // incumbent remaining cost under rescaled profiles
	NewCostSec float64 `json:"new_cost_sec"` // re-solved remaining predicted cost
	BudgetSec  float64 `json:"budget_sec"`   // remaining budget the re-solve ran against
	SpentSec   float64 `json:"spent_sec"`    // analysis+output seconds already observed
}

// Delta returns the objective change the decision bought (new − old); zero
// for decisions that kept the incumbent.
func (r ReplanRecord) Delta() float64 {
	if !r.Adopted {
		return 0
	}
	return r.NewValue - r.OldValue
}

// replanReasonCode maps reasons onto the numeric args payload (ledger args
// are float64-only by design).
func replanReasonCode(reason string) float64 {
	switch reason {
	case ReplanAdopted:
		return 0
	case ReplanNoImprovement:
		return 1
	case ReplanInfeasible:
		return 2
	case ReplanHorizon:
		return 3
	case ReplanLimit:
		return 4
	}
	return -1
}

func replanReasonFromCode(code float64) string {
	switch code {
	case 0:
		return ReplanAdopted
	case 1:
		return ReplanNoImprovement
	case 2:
		return ReplanInfeasible
	case 3:
		return ReplanHorizon
	case 4:
		return ReplanLimit
	}
	return ""
}

// Event serializes the record as a schema-versioned replan ledger event, the
// inverse of replanRecordFromEvent. The triggering alert rides along as the
// kind code plus the event's Name (the alerting stream).
func (r ReplanRecord) Event() obs.LedgerEvent {
	return obs.LedgerEvent{
		Type: obs.LedgerReplan, Name: r.Stream, Step: r.Step,
		Args: map[string]float64{
			"replan_v":     ReplanSchemaVersion,
			"reason":       replanReasonCode(r.Reason),
			"adopted":      boolArg(r.Adopted),
			"trigger":      alertKindCode(r.Trigger),
			"old_value":    r.OldValue,
			"new_value":    r.NewValue,
			"old_cost_sec": r.OldCostSec,
			"new_cost_sec": r.NewCostSec,
			"budget_sec":   r.BudgetSec,
			"spent_sec":    r.SpentSec,
		},
	}
}

// replanRecordFromEvent decodes a replan ledger event. It reports false for
// events from a newer replan schema, which readers skip rather than
// misinterpret (the alert-event convention).
func replanRecordFromEvent(e obs.LedgerEvent) (ReplanRecord, bool) {
	if e.Type != obs.LedgerReplan {
		return ReplanRecord{}, false
	}
	if v := e.Args["replan_v"]; v > ReplanSchemaVersion {
		return ReplanRecord{}, false
	}
	reason := replanReasonFromCode(e.Args["reason"])
	if reason == "" {
		return ReplanRecord{}, false
	}
	trigger := AlertDrift
	if e.Args["trigger"] == alertKindCode(AlertBudget) {
		trigger = AlertBudget
	}
	return ReplanRecord{
		Step:       e.Step,
		Trigger:    trigger,
		Stream:     e.Name,
		Reason:     reason,
		Adopted:    e.Args["adopted"] > 0,
		OldValue:   e.Args["old_value"],
		NewValue:   e.Args["new_value"],
		OldCostSec: e.Args["old_cost_sec"],
		NewCostSec: e.Args["new_cost_sec"],
		BudgetSec:  e.Args["budget_sec"],
		SpentSec:   e.Args["spent_sec"],
	}, true
}

// ReplansFromEvents decodes every replan event in a ledger slice, in order.
// It is the post-hoc codec behind the schedexplain replan timeline and any
// other consumer that wants the decision history without replaying a full
// Monitor; unknown-schema or unknown-reason events are skipped, exactly as
// Monitor.Observe skips them.
func ReplansFromEvents(events []obs.LedgerEvent) []ReplanRecord {
	var out []ReplanRecord
	for _, e := range events {
		if e.Type != obs.LedgerReplan {
			continue
		}
		if r, ok := replanRecordFromEvent(e); ok {
			out = append(out, r)
		}
	}
	return out
}
