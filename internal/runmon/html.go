package runmon

import (
	"fmt"
	"html/template"
	"io"

	"insitu/internal/explain/style"
)

// htmlView pre-formats the snapshot so the template stays logic-free, the
// same pattern (and stylesheet) as the schedexplain HTML report.
type htmlView struct {
	App     string
	Step    string
	State   string
	Budget  string
	AtRisk  bool
	Streams []htmlStream
	Alerts  []htmlAlert
}

type htmlStream struct {
	Name     string
	Count    int
	PredMS   string
	MeanMS   string
	EWMA     string
	CusumPos string
	CusumNeg string
	Status   string
	Alerted  bool
}

type htmlAlert struct {
	Kind   string
	Step   int
	Stream string
	Detail string
}

var driftTemplate = template.Must(template.New("drift").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Run drift report</title>
<style>
` + style.Page + `
</style>
</head>
<body>
<h1>Run drift report</h1>
<p class="summary">
<span>run <strong>{{.App}}</strong></span>
<span>step <strong>{{.Step}}</strong></span>
<span>state <strong>{{.State}}</strong></span>
{{if .Budget}}<span>budget <strong{{if .AtRisk}} class="alert"{{end}}>{{.Budget}}</strong></span>{{end}}
</p>

<h2>Residual streams</h2>
<table>
<tr><th>stream</th><th>n</th><th>pred (ms)</th><th>mean (ms)</th><th>EWMA err</th><th>CUSUM+</th><th>CUSUM−</th><th>status</th></tr>
{{range .Streams}}
<tr{{if .Alerted}} class="alert"{{end}}>
<td>{{.Name}}</td><td>{{.Count}}</td><td>{{.PredMS}}</td><td>{{.MeanMS}}</td>
<td>{{.EWMA}}</td><td>{{.CusumPos}}</td><td>{{.CusumNeg}}</td><td>{{.Status}}</td>
</tr>
{{end}}
</table>

<h2>Alerts</h2>
{{if .Alerts}}
<table>
<tr><th>kind</th><th>step</th><th>stream</th><th>detail</th></tr>
{{range .Alerts}}
<tr class="alert"><td>{{.Kind}}</td><td>{{.Step}}</td><td>{{.Stream}}</td><td>{{.Detail}}</td></tr>
{{end}}
</table>
{{else}}
<p><span class="badge ok">none</span></p>
{{end}}
</body>
</html>
`))

// WriteHTML renders the snapshot as one self-contained HTML drift report
// (inline CSS, no external assets), styled like the schedexplain report.
func (s Snapshot) WriteHTML(w io.Writer) error {
	app := s.App
	if app == "" {
		app = "(unnamed run)"
	}
	state := "running"
	if s.Ended {
		state = "ended"
	}
	step := fmt.Sprintf("%d", s.Step)
	if s.Steps > 0 {
		step = fmt.Sprintf("%d / %d", s.Step, s.Steps)
	}
	view := htmlView{
		App:    app,
		Step:   step,
		State:  state,
		AtRisk: s.BudgetAtRisk,
	}
	if s.ThresholdSec > 0 {
		risk := "within budget"
		if s.BudgetAtRisk {
			risk = "AT RISK"
		}
		view.Budget = fmt.Sprintf("projected %.3fs of %.3fs — %s", s.ProjectedSec, s.ThresholdSec, risk)
	}
	for _, st := range s.Streams {
		status := "ok"
		if st.PredictedSec <= 0 {
			status = "calibrating"
		}
		if st.Alerted {
			status = fmt.Sprintf("drift at step %d", st.AlertStep)
		}
		view.Streams = append(view.Streams, htmlStream{
			Name:     st.Stream,
			Count:    st.Count,
			PredMS:   fmt.Sprintf("%.3f", st.PredictedSec*1e3),
			MeanMS:   fmt.Sprintf("%.3f", st.MeanSec*1e3),
			EWMA:     fmt.Sprintf("%.1f%%", st.EWMARelErr*100),
			CusumPos: fmt.Sprintf("%.2f", st.CUSUMPos),
			CusumNeg: fmt.Sprintf("%.2f", st.CUSUMNeg),
			Status:   status,
			Alerted:  st.Alerted,
		})
	}
	for _, a := range s.Alerts {
		detail := fmt.Sprintf("%s by %.0f%%: predicted %.3fms, observed %.3fms (CUSUM %.2f)",
			a.Direction, abs(a.RelErr)*100, a.Predicted*1e3, a.Observed*1e3, a.CUSUM)
		if a.Kind == AlertBudget {
			detail = fmt.Sprintf("projected %.3fs exceeds threshold %.3fs", a.Observed, a.Predicted)
		}
		view.Alerts = append(view.Alerts, htmlAlert{
			Kind: a.Kind, Step: a.Step, Stream: a.Stream, Detail: detail,
		})
	}
	return driftTemplate.Execute(w, view)
}
