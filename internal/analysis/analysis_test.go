package analysis

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// scriptKernel is a controllable fake for exercising Measure.
type scriptKernel struct {
	name        string
	setupBytes  int64
	preBytes    []int64 // returned per PreStep call, cycling
	analyzeB    int64
	outBytes    int64
	failAt      string
	preCalls    int
	analyzeCnt  int
	outputCalls int
	freed       bool
}

func (k *scriptKernel) Name() string { return k.name }

func (k *scriptKernel) Setup() (int64, error) {
	if k.failAt == "setup" {
		return 0, fmt.Errorf("setup failure")
	}
	return k.setupBytes, nil
}

func (k *scriptKernel) PreStep(step int) (int64, error) {
	if k.failAt == "prestep" {
		return 0, fmt.Errorf("prestep failure")
	}
	v := int64(0)
	if len(k.preBytes) > 0 {
		v = k.preBytes[k.preCalls%len(k.preBytes)]
	}
	k.preCalls++
	return v, nil
}

func (k *scriptKernel) Analyze(step int) (int64, error) {
	if k.failAt == "analyze" {
		return 0, fmt.Errorf("analyze failure")
	}
	k.analyzeCnt++
	time.Sleep(time.Millisecond)
	return k.analyzeB, nil
}

func (k *scriptKernel) Output(dst io.Writer) (int64, error) {
	if k.failAt == "output" {
		return 0, fmt.Errorf("output failure")
	}
	k.outputCalls++
	n, err := dst.Write(make([]byte, k.outBytes))
	return int64(n), err
}

func (k *scriptKernel) Free() { k.freed = true }

func TestMeasureMapsPhasesToCosts(t *testing.T) {
	k := &scriptKernel{
		name:       "fake",
		setupBytes: 1000,
		preBytes:   []int64{5, 9, 7},
		analyzeB:   64,
		outBytes:   32,
	}
	steps := 0
	costs, err := Measure(k, func() { steps++ })
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 {
		t.Fatalf("stepped %d times", steps)
	}
	if costs.Kernel != "fake" {
		t.Fatalf("kernel = %q", costs.Kernel)
	}
	if costs.FM != 1000 {
		t.Fatalf("fm = %d", costs.FM)
	}
	if costs.IM != 9 {
		t.Fatalf("im = %d, want max of per-step allocations", costs.IM)
	}
	if costs.CM != 64 || costs.OM != 32 {
		t.Fatalf("cm/om = %d/%d", costs.CM, costs.OM)
	}
	if k.analyzeCnt != 2 {
		t.Fatalf("analyses = %d, want every 2nd of 4 steps", k.analyzeCnt)
	}
	if costs.CT < time.Millisecond {
		t.Fatalf("ct = %v, want >= the 1ms analyze sleep", costs.CT)
	}
	if k.outputCalls != 1 {
		t.Fatalf("outputs = %d", k.outputCalls)
	}
	if !k.freed {
		t.Fatal("Measure must free the kernel")
	}
}

func TestMeasureErrorPaths(t *testing.T) {
	for _, phase := range []string{"setup", "prestep", "analyze", "output"} {
		k := &scriptKernel{name: phase, failAt: phase}
		_, err := Measure(k, func() {})
		if err == nil {
			t.Fatalf("expected %s error", phase)
		}
		if !strings.Contains(err.Error(), phase) {
			t.Fatalf("error %q does not name the failing phase %s", err, phase)
		}
	}
}

func TestCostsString(t *testing.T) {
	c := Costs{Kernel: "k", FT: time.Second, FM: 42}
	s := c.String()
	if !strings.Contains(s, "k") || !strings.Contains(s, "42") {
		t.Fatalf("costs string %q missing fields", s)
	}
}

var _ Kernel = (*scriptKernel)(nil)
