package runmon

import "insitu/internal/obs"

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

// ReplanRecord is one rolling-horizon reschedule decision, the ledger record
// (obs.RecordEvent) of a "replan" event. internal/replan writes these; the
// monitor collects them (live or from a ledger replay) into the snapshot's
// replan timeline.
type ReplanRecord struct {
	Step       int     `json:"step" ledger:"step"`                                              // simulation step the decision was made after
	Trigger    string  `json:"trigger" ledger:"drift|budget"`                                   // alert kind that woke the replanner
	Stream     string  `json:"stream" ledger:"name"`                                            // residual stream of the triggering alert
	Reason     string  `json:"reason" ledger:"adopted|no_improvement|infeasible|horizon|limit"` // one of the Replan* reasons
	Adopted    bool    `json:"adopted"`                                                         // true exactly when Reason == ReplanAdopted
	OldValue   float64 `json:"old_value"`                                                       // incumbent remaining-horizon objective
	NewValue   float64 `json:"new_value"`                                                       // re-solved remaining-horizon objective (0 unless solved)
	OldCostSec float64 `json:"old_cost_sec"`                                                    // incumbent remaining cost under rescaled profiles
	NewCostSec float64 `json:"new_cost_sec"`                                                    // re-solved remaining predicted cost
	BudgetSec  float64 `json:"budget_sec"`                                                      // remaining budget the re-solve ran against
	SpentSec   float64 `json:"spent_sec"`                                                       // analysis+output seconds already observed
}

// Event is the record as a replan ledger event.
func (r ReplanRecord) Event() obs.LedgerEvent { return obs.RecordEvent(obs.LedgerReplan, &r) }

// ReplansFromEvents decodes every replan event in a ledger slice, in order.
// It is the post-hoc codec behind the schedexplain replan timeline and any
// other consumer that wants the decision history without replaying a full
// Monitor; events with an unknown reason or trigger are skipped, exactly as
// Monitor.Observe skips them.
func ReplansFromEvents(events []obs.LedgerEvent) []ReplanRecord {
	var out []ReplanRecord
	for _, e := range events {
		var r ReplanRecord
		if obs.ReadRecord(e, obs.LedgerReplan, &r) {
			out = append(out, r)
		}
	}
	return out
}
