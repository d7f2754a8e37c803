package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/schedd"
)

const goldenScenario = "../../internal/experiments/testdata/golden/scenario_water_ions_10pct.json"

func TestUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("no args: code = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"bogus"}, &out, &errb); code != 2 {
		t.Fatalf("unknown command: code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown command") {
		t.Fatalf("stderr missing unknown-command notice: %q", errb.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"help"}, &out, &errb); code != 0 {
		t.Fatalf("help: code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "serve") || !strings.Contains(out.String(), "once") {
		t.Fatalf("help text missing commands: %q", out.String())
	}
}

func TestOnceSolvesAndWritesLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "req.jsonl")
	var out, errb strings.Builder
	code := run(context.Background(), []string{
		"once", "-scenario", goldenScenario, "-explain", "-id", "req-once", "-ledger", ledger,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("once: code = %d, want 0 (stderr: %s)", code, errb.String())
	}
	var resp schedd.SolveResponse
	if err := json.Unmarshal([]byte(out.String()), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, out.String())
	}
	// The printed bytes are the daemon's renderer's: the indented
	// encoding/json document, which the decoded value reproduces.
	var want strings.Builder
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&resp); err != nil || want.String() != out.String() {
		t.Fatalf("once printed bytes the encoder does not reproduce (%v)\n--- once\n%s\n--- encoder\n%s", err, out.String(), want.String())
	}
	if resp.RequestID != "req-once" {
		t.Fatalf("RequestID = %q, want req-once", resp.RequestID)
	}
	if resp.Schema != schedd.SchemaVersion || len(resp.Schedules) == 0 || resp.Explain == nil {
		t.Fatalf("response incomplete: schema=%d schedules=%d explain=%v",
			resp.Schema, len(resp.Schedules), resp.Explain)
	}
	events, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatalf("reading ledger: %v", err)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Type]++
		if e.Name != "req-once" {
			t.Fatalf("ledger event %s has Name %q, want req-once", e.Type, e.Name)
		}
	}
	if kinds["reqlog"] != 1 || kinds["solve"] != 1 || kinds["solveprog"] == 0 {
		t.Fatalf("ledger kinds = %v, want 1 reqlog, 1 solve, >0 solveprog", kinds)
	}
}

func TestOnceMissingScenario(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"once"}, &out, &errb); code != 2 {
		t.Fatalf("once without -scenario: code = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"once", "-scenario", "no-such-file.json"}, &out, &errb); code != 1 {
		t.Fatalf("once with bad path: code = %d, want 1", code)
	}
}

// TestServeAndClient boots the daemon on a loopback port, posts the golden
// scenario twice through the client subcommand, and checks the second answer
// is a cache hit, readiness flips on shutdown, and the server drains cleanly.
func TestServeAndClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	var srvOut, srvErr strings.Builder
	go func() {
		done <- serve(ctx, ln, schedd.Config{}, &srvOut, &srvErr)
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor(func() bool {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}, "daemon readiness")

	post := func(id string) schedd.SolveResponse {
		t.Helper()
		var out, errb strings.Builder
		code := cmdClient(ctx, []string{"-addr", addr, "-scenario", goldenScenario, "-id", id}, &out, &errb)
		if code != 0 {
			t.Fatalf("client: code = %d (stderr: %s)", code, errb.String())
		}
		var resp schedd.SolveResponse
		if err := json.Unmarshal([]byte(out.String()), &resp); err != nil {
			t.Fatalf("client response not JSON: %v\n%s", err, out.String())
		}
		return resp
	}
	first := post("cli-a")
	if first.CacheHit || first.RequestID != "cli-a" || len(first.Schedules) == 0 {
		t.Fatalf("first response wrong: hit=%v id=%q schedules=%d",
			first.CacheHit, first.RequestID, len(first.Schedules))
	}
	second := post("cli-b")
	if !second.CacheHit {
		t.Fatalf("second identical request not served from cache: %+v", second)
	}
	if fmt.Sprint(first.Schedules) != fmt.Sprint(second.Schedules) {
		t.Fatalf("cache hit changed the schedule:\n%v\n%v", first.Schedules, second.Schedules)
	}

	if code, body := get("/v1/requests"); code != http.StatusOK || !strings.Contains(body, "cli-a") {
		t.Fatalf("/v1/requests = %d %q, want 200 with cli-a", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "schedd_requests_total") {
		t.Fatalf("/metrics = %d, want 200 with schedd_requests_total (body: %.200s)", code, body)
	}

	cancel()
	waitFor(func() bool {
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("serve exited %d (stderr: %s)", code, srvErr.String())
			}
			return true
		default:
			return false
		}
	}, "daemon shutdown")
}
