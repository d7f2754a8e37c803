package coupling

import (
	"bytes"
	"io"
	"regexp"
	"testing"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/obs"
)

// sleepKernel is a kernel whose analysis and output each take at least a
// microsecond, so every analysis and output ledger event carries a duration.
type sleepKernel struct{ name string }

func (k sleepKernel) Name() string               { return k.name }
func (k sleepKernel) Setup() (int64, error)      { return 100, nil }
func (k sleepKernel) PreStep(int) (int64, error) { return 0, nil }
func (k sleepKernel) Analyze(int) (int64, error) { time.Sleep(time.Microsecond); return 16, nil }
func (k sleepKernel) Free()                      {}
func (k sleepKernel) Output(w io.Writer) (int64, error) {
	time.Sleep(time.Microsecond)
	n, err := w.Write([]byte("out\n"))
	return int64(n), err
}

// wallClockFields matches the ledger values a run reads off its own
// stopwatch: event stamps, durations and run_end's totals.
var wallClockFields = regexp.MustCompile(`("(?:ts_us|dur_us|sim_seconds|analysis_seconds)":)[^,}]+`)

// TestRunnerLedgerBytes pins the runner's ledger line for line: run_start,
// step, analysis, output and run_end, under a fixed ledger clock, with the
// values the runner's stopwatch measures masked.
func TestRunnerLedgerBytes(t *testing.T) {
	_, rec, res := twoKernelSetup()
	res.Steps = 10
	var buf bytes.Buffer
	led := obs.NewEventLog(&buf)
	led.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	r := &Runner{
		Step:    func() { time.Sleep(time.Microsecond) },
		Kernels: map[string]analysis.Kernel{"k1": sleepKernel{"k1"}, "k2": sleepKernel{"k2"}},
		Rec:     rec, Res: res, Ledger: led, App: "pin",
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	got := wallClockFields.ReplaceAllString(buf.String(), "${1}0")
	if got != runnerLedgerPin {
		t.Fatalf("runner ledger moved:\n got %s\nwant %s", got, runnerLedgerPin)
	}
}

const runnerLedgerPin = `{"v":2,"type":"run_start","name":"pin","ts_us":0,"args":{"kernels":2,"steps":10}}
{"v":2,"type":"step","step":1,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":2,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":3,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":4,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":5,"ts_us":0,"dur_us":0}
{"v":2,"type":"analysis","name":"k1","step":5,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":6,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":7,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":8,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":9,"ts_us":0,"dur_us":0}
{"v":2,"type":"step","step":10,"ts_us":0,"dur_us":0}
{"v":2,"type":"analysis","name":"k1","step":10,"ts_us":0,"dur_us":0}
{"v":2,"type":"output","name":"k1","step":10,"ts_us":0,"dur_us":0,"bytes":4}
{"v":2,"type":"analysis","name":"k2","step":10,"ts_us":0,"dur_us":0}
{"v":2,"type":"run_end","ts_us":0,"args":{"analysis_seconds":0,"sim_seconds":0}}
`
