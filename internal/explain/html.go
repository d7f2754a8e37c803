package explain

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"insitu/internal/core"
	"insitu/internal/explain/style"
)

// htmlReport is the template's view model: everything pre-formatted so the
// template stays free of logic beyond ranging and conditionals.
type htmlReport struct {
	Objective   string
	TotalTime   string
	PeakMemory  string
	Utilization string
	Gantt       string
	Attribution []htmlAttribution
	Rows        []htmlRow
	Stats       string
	Ledger      *htmlLedger
}

type htmlAttribution struct {
	Name     string
	State    string // "enabled" | "disabled"
	Count    string
	Binding  string // badge text
	Detail   string
	Conflict string
}

type htmlRow struct {
	Name     string
	Activity string
	RHS      string
	Slack    string
	Dual     string
	Binding  bool
}

type htmlLedger struct {
	Caption string
	Kernels []htmlKernel
}

type htmlKernel struct {
	Name        string
	Planned     int
	Executed    int
	PlannedSec  string
	ExecutedSec string
	Note        string
}

// PageStyle is the shared stylesheet of the repo's self-contained HTML
// reports; it lives in the leaf package internal/explain/style so that the
// runmon drift report can embed the same block without importing this
// package, and schedexplain and runmon output render as one family.
const PageStyle = style.Page

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>In-situ schedule explanation</title>
<style>
` + PageStyle + `
</style>
</head>
<body>
<h1>In-situ schedule explanation</h1>
<p class="summary">
<span>objective <strong>{{.Objective}}</strong></span>
<span>total time <strong>{{.TotalTime}}</strong></span>
<span>peak memory <strong>{{.PeakMemory}}</strong></span>
{{if .Utilization}}<span>utilization <strong>{{.Utilization}}</strong></span>{{end}}
</p>

<h2>Timeline</h2>
<pre>{{.Gantt}}</pre>

<h2>Attribution</h2>
<table>
<tr><th>analysis</th><th>state</th><th>count</th><th>binding / counterfactual</th></tr>
{{range .Attribution}}
<tr>
<td>{{.Name}}</td>
<td><span class="badge {{.State}}">{{.State}}</span></td>
<td>{{.Count}}</td>
<td>{{if .Binding}}<span class="badge binding">{{.Binding}}</span> {{end}}{{.Detail}}
{{if .Conflict}}<div class="conflict">conflict: {{.Conflict}}</div>{{end}}</td>
</tr>
{{end}}
</table>

{{if .Rows}}
<h2>Resource rows</h2>
<table>
<tr><th>row</th><th>activity</th><th>rhs</th><th>slack</th><th>dual</th></tr>
{{range .Rows}}
<tr{{if .Binding}} style="background:#fff4e5"{{end}}>
<td>{{.Name}}</td><td>{{.Activity}}</td><td>{{.RHS}}</td><td>{{.Slack}}</td><td>{{.Dual}}</td>
</tr>
{{end}}
</table>
{{end}}

<h2>Search</h2>
<p>{{.Stats}}</p>

{{if .Ledger}}
<h2>Planned vs executed</h2>
<p>{{.Ledger.Caption}}</p>
<table>
<tr><th>analysis</th><th>planned steps</th><th>executed</th><th>planned sec</th><th>executed sec</th><th></th></tr>
{{range .Ledger.Kernels}}
<tr><td>{{.Name}}</td><td>{{.Planned}}</td><td>{{.Executed}}</td>
<td>{{.PlannedSec}}</td><td>{{.ExecutedSec}}</td><td>{{.Note}}</td></tr>
{{end}}
</table>
{{end}}
</body>
</html>
`))

// WriteHTML renders the report as one self-contained HTML document (inline
// CSS, no external assets), suitable for attaching to a run's artifacts.
func (r *Report) WriteHTML(w io.Writer) error {
	rec := r.Ex.Rec
	view := htmlReport{
		Objective:  fmt.Sprintf("%.3f", rec.Objective),
		TotalTime:  fmt.Sprintf("%.3f s", rec.TotalTime),
		PeakMemory: humanBytes(float64(rec.PeakMemory)),
		Gantt:      rec.GanttString(r.Res, r.ganttWidth),
		Stats:      r.searchLine(),
	}
	if r.Res.TimeThreshold > 0 {
		view.Utilization = fmt.Sprintf("%.1f%%", rec.Utilization(r.Res)*100)
	}
	for _, at := range r.Ex.Attributions {
		h := htmlAttribution{Name: at.Name, State: "disabled", Count: fmt.Sprintf("%d / %d", at.Count, at.MaxCount)}
		if at.Enabled {
			h.State = "enabled"
			h.Binding = at.Binding
			h.Detail = bindingDetail(at)
		} else {
			h.Detail = counterfactual(at)
			if len(at.Conflict) > 0 {
				h.Conflict = fmt.Sprintf("{%s}", strings.Join(at.Conflict, ", "))
			}
		}
		view.Attribution = append(view.Attribution, h)
	}
	for _, row := range r.Ex.Rows {
		hr := htmlRow{
			Name:     row.Name,
			Activity: fmt.Sprintf("%.4g", row.Activity),
			RHS:      fmt.Sprintf("%.4g", row.RHS),
			Slack:    fmt.Sprintf("%.4g", row.Slack),
			Dual:     fmt.Sprintf("%.4g", row.Dual),
			Binding:  row.Binding,
		}
		if row.Name == core.BindingMemory {
			hr.Activity = humanBytes(row.Activity)
			hr.RHS = humanBytes(row.RHS)
			hr.Slack = humanBytes(row.Slack)
		}
		view.Rows = append(view.Rows, hr)
	}
	if r.Ledger != nil {
		caption := fmt.Sprintf("run %q, %d ledger step(s)", r.Ledger.App, r.Ledger.Steps)
		if n := len(r.Ledger.Replans); n > 0 {
			adopted := 0
			for _, rr := range r.Ledger.Replans {
				if rr.Adopted {
					adopted++
				}
			}
			caption += fmt.Sprintf(", %d replan decision(s) (%d adopted)", n, adopted)
		}
		hl := &htmlLedger{Caption: caption}
		for _, k := range r.Ledger.Kernels {
			hl.Kernels = append(hl.Kernels, htmlKernel{
				Name:        k.Name,
				Planned:     k.PlannedCount,
				Executed:    k.ExecutedCount,
				PlannedSec:  fmt.Sprintf("%.3f", k.PlannedSec),
				ExecutedSec: fmt.Sprintf("%.3f", k.ExecutedSec),
				Note:        trimNote(k.note()),
			})
		}
		view.Ledger = hl
	}
	return reportTemplate.Execute(w, view)
}

// trimNote strips the terminal arrow decoration for the HTML cell.
func trimNote(s string) string {
	return strings.TrimLeft(s, " <-")
}
