// Command schedd is the scheduling-as-a-service daemon: it accepts scenario
// JSON over HTTP, solves the in-situ analysis scheduling problem with the
// same core/milp stack the batch tools use, and answers with the schedule,
// solver telemetry, and (optionally) the decision-attribution summary.
//
// Usage:
//
//	schedd serve  [-addr host:port] [-max-inflight n]
//	              [-queue-timeout d] [-cache-entries n]
//	              [-ledger req.jsonl] [-ledger-max-bytes n]
//	schedd once   -scenario problem.json [-explain] [-id rid]
//	schedd client -scenario problem.json [-addr host:port] [-explain] [-id rid]
//
// serve runs the daemon: POST /v1/solve, GET /v1/requests,
// GET /v1/requests/{id}/solve.json, plus /metrics, /healthz, /readyz and
// /debug/pprof from the shared obs mux. It shuts down gracefully on
// SIGINT/SIGTERM, flipping /readyz to draining first. once runs a single
// request through the identical service pipeline — request IDs, cache keys,
// RED metrics, reqlog ledger — without binding a socket, and prints the same
// response JSON the daemon would send. client posts a scenario file to a
// running daemon.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insitu/internal/obs"
	"insitu/internal/scenario"
	"insitu/internal/schedd"
)

const usageText = `usage: schedd <command> [flags]

commands:
  serve   run the scheduling service daemon
  once    run one request through the service pipeline and print the response
  client  post a scenario file to a running daemon

run 'schedd <command> -h' for the flags of each command.
`

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code: 0 ok,
// 1 failure, 2 usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "serve":
		return cmdServe(ctx, args[1:], stdout, stderr)
	case "once":
		return cmdOnce(ctx, args[1:], stdout, stderr)
	case "client":
		return cmdClient(ctx, args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprintf(stderr, "schedd: unknown command %q\n%s", args[0], usageText)
	return 2
}

// serviceFlags are the schedd.Config knobs shared by serve and once.
type serviceFlags struct {
	maxInFlight   *int
	queueTimeout  *time.Duration
	cacheEntries  *int
	ledgerPath    *string
	ledgerMaxSize *int64
}

func addServiceFlags(fs *flag.FlagSet) *serviceFlags {
	return &serviceFlags{
		maxInFlight:   fs.Int("max-inflight", 0, "concurrent solver slots (0 = default 4)"),
		queueTimeout:  fs.Duration("queue-timeout", 0, "max wait for a solver slot (0 = default 5s)"),
		cacheEntries:  fs.Int("cache-entries", 0, "solution cache capacity (0 = default 128)"),
		ledgerPath:    fs.String("ledger", "", "write the reqlog access ledger (JSONL) to this file"),
		ledgerMaxSize: fs.Int64("ledger-max-bytes", 0, "rotate the ledger past this size (0 = unbounded)"),
	}
}

// open builds the schedd.Config, opening the ledger if one was requested.
// The returned closer is non-nil exactly when a ledger was opened.
func (f *serviceFlags) open() (schedd.Config, *obs.EventLog, error) {
	cfg := schedd.Config{
		MaxInFlight:  *f.maxInFlight,
		QueueTimeout: *f.queueTimeout,
		CacheEntries: *f.cacheEntries,
	}
	if *f.ledgerPath == "" {
		return cfg, nil, nil
	}
	l, err := obs.OpenEventLog(*f.ledgerPath, *f.ledgerMaxSize)
	if err != nil {
		return cfg, nil, fmt.Errorf("opening ledger: %w", err)
	}
	cfg.Ledger = l
	return cfg, l, nil
}

func cmdServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8070", "listen address")
	svc := addServiceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ledger, err := svc.open()
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	if ledger != nil {
		defer ledger.Close()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	return serve(ctx, ln, cfg, stdout, stderr)
}

// serve runs the daemon on ln until ctx is canceled. Shutdown is graceful:
// /readyz flips to draining the moment the signal lands, then in-flight
// requests finish before ServeUntil returns.
func serve(ctx context.Context, ln net.Listener, cfg schedd.Config, stdout, stderr io.Writer) int {
	s := schedd.New(cfg)
	go func() {
		<-ctx.Done()
		s.Drain()
	}()
	fmt.Fprintf(stdout, "schedd: serving http://%s/v1/solve (also /v1/requests, /metrics, /healthz, /readyz)\n", ln.Addr())
	if err := obs.ServeUntil(ctx, ln, s.Handler()); err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	return 0
}

// loadRequest reads the -scenario file ("-" for stdin) into a SolveRequest.
func loadRequest(path string, explain bool, stdin io.Reader) (schedd.SolveRequest, error) {
	var (
		p   scenario.Problem
		err error
	)
	if path == "-" {
		p, err = scenario.Parse(stdin)
	} else {
		p, err = scenario.Load(path)
	}
	if err != nil {
		return schedd.SolveRequest{}, err
	}
	return schedd.SolveRequest{Scenario: p, Explain: explain}, nil
}

func cmdOnce(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedd once", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("scenario", "", "scenario JSON file to solve ('-' for stdin; required)")
	explain := fs.Bool("explain", false, "attach the decision-attribution summary")
	id := fs.String("id", "", "request ID (default: minted)")
	svc := addServiceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *path == "" {
		fmt.Fprintln(stderr, "schedd: once needs -scenario problem.json")
		fs.Usage()
		return 2
	}
	req, err := loadRequest(*path, *explain, os.Stdin)
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	cfg, ledger, err := svc.open()
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	s := schedd.New(cfg)
	resp, code := s.Process(ctx, *id, req)
	if ledger != nil {
		if err := ledger.Close(); err != nil {
			fmt.Fprintf(stderr, "schedd: closing ledger: %v\n", err)
			return 1
		}
	}
	doc, err := schedd.EncodeResponse(resp)
	if err == nil {
		_, err = stdout.Write(doc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	if code != http.StatusOK {
		return 1
	}
	return 0
}

func cmdClient(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedd client", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8070", "daemon address")
	path := fs.String("scenario", "", "scenario JSON file to post ('-' for stdin; required)")
	explain := fs.Bool("explain", false, "ask for the decision-attribution summary")
	id := fs.String("id", "", "request ID header (default: server-minted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *path == "" {
		fmt.Fprintln(stderr, "schedd: client needs -scenario problem.json")
		fs.Usage()
		return 2
	}
	req, err := loadRequest(*path, *explain, os.Stdin)
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+*addr+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	hreq.Header.Set("Content-Type", "application/json")
	if *id != "" {
		hreq.Header.Set(obs.RequestIDHeader, *id)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	defer hresp.Body.Close()
	if _, err := io.Copy(stdout, hresp.Body); err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	if hresp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "schedd: daemon answered %s\n", hresp.Status)
		return 1
	}
	return 0
}
