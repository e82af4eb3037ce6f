// The serve subcommand: the long-running HTTP face of the codec
// (DESIGN.md §12).
//
//	llm265 serve -addr :8265 -workers 8 -max-inflight 4
//
// Endpoints: POST /v1/encode, POST /v1/decode, PUT/GET/DELETE
// /v1/kv/{session}, GET /healthz, GET /metricsz. A client bounds a request's
// compute with ?deadline_ms=N.
// SIGTERM or SIGINT starts a graceful drain: the listener stops accepting,
// /healthz flips to 503, inflight requests run to completion (for at most
// drainTimeout, 30 s), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dct"
	"repro/internal/serve"
)

// drainTimeout bounds how long a SIGTERM drain waits for inflight requests.
const drainTimeout = 30 * time.Second

func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8265", "listen address")
		workers     = fs.Int("workers", 0, "codec worker pool size per request (0 = GOMAXPROCS)")
		maxInflight = fs.Int("max-inflight", 4, "concurrently executing encode/decode jobs")
		kvBudget    = fs.Int64("kv-budget", 256<<20, "KV-cache tier resident byte budget (eviction fits it; 507 when an append can never fit)")
		kvQP        = fs.Int("kv-qp", 12, fmt.Sprintf("KV chunk quantization parameter, 0..%d (0 = default 12)", dct.MaxQP))
	)
	fs.Parse(args)
	if *kvQP < 0 || *kvQP > dct.MaxQP {
		// A QP no encode can run at is a bad flag value here (exit 2, as
		// flag.ExitOnError does), not the 400 of whichever PUT first flushes.
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -kv-qp: out of range [0, %d]\n", *kvQP, dct.MaxQP)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Workers:       *workers,
		MaxInflight:   *maxInflight,
		KVBudgetBytes: *kvBudget,
		KVQP:          *kvQP,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("llm265 serve: listening on %s (max-inflight %d)\n", *addr, *maxInflight)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		// Listener died without a signal: configuration problem (bad addr,
		// port in use) — report and fail.
		fatal(err)
	case sig := <-sigCh:
		fmt.Printf("llm265 serve: %v, draining (timeout %v)\n", sig, drainTimeout)
	}

	// Graceful drain: stop admitting (healthz flips to 503, new jobs get
	// 503), let inflight jobs finish, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "llm265 serve: drain incomplete: %v (%d request(s) abandoned)\n",
			drainErr, srv.Inflight())
		os.Exit(1)
	}
	fmt.Println("llm265 serve: drained, bye")
}
