// The proxy subcommand: the fleet face of the codec service (DESIGN.md §14).
//
//	llm265 proxy -addr :8266 -backends http://127.0.0.1:8265,http://127.0.0.1:8267
//
// Shards /v1/encode and /v1/decode over the backend `llm265 serve` instances
// by consistent hashing (explicit ?key=, else content hash), with active
// health probing, per-backend circuit breakers, retry with capped jittered
// backoff honoring Retry-After, hedged decodes, and shed-before-queue when a
// key's replicas are all out. GET /healthz reports fleet state; GET
// /metricsz exposes routing, retry/hedge and per-backend metrics. SIGTERM
// or SIGINT stops the probers and the listener.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/proxy"
)

func proxyCmd(args []string) {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8266", "listen address")
		backends = fs.String("backends", "", "comma-separated backend base URLs (required), e.g. http://10.0.0.1:8265,http://10.0.0.2:8265")
	)
	fs.Parse(args)
	if *backends == "" {
		fatal(fmt.Errorf("proxy requires -backends"))
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			// Bare host:port is the common operator spelling; serve speaks
			// plain HTTP, so default the scheme rather than reject.
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			urls = append(urls, u)
		}
	}

	p, err := proxy.New(proxy.Config{Backends: urls})
	if err != nil {
		fatal(err)
	}
	p.Start()
	defer p.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           p.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("llm265 proxy: listening on %s over %d backend(s)\n", *addr, len(urls))
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		fmt.Printf("llm265 proxy: %v, shutting down\n", sig)
	}
	httpSrv.Close()
	fmt.Println("llm265 proxy: bye")
}
