// Command idicnd runs a complete idICN deployment on loopback: a name
// resolver, an origin server with its signing reverse proxy, and an edge
// proxy with WPAD/PAC auto-configuration — the full Figure 11 pipeline.
//
// Usage:
//
//	idicnd                  # start the stack, publish demo content, serve until interrupted
//	idicnd -demo            # additionally fetch the demo content through the proxy and exit
//	idicnd -log-requests    # log one structured line per HTTP request to stderr
//
// With the stack running, a browser configured with the printed PAC URL (or
// curl with an explicit Host header) fetches content by self-certifying
// name; the proxy authenticates every object before serving it. A debug
// server exposes live counters and latency histograms for every component
// at /debug/metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"idicn/internal/faults"
	"idicn/internal/httpx"
	"idicn/internal/idicn/dnsbridge"
	"idicn/internal/idicn/names"
	"idicn/internal/idicn/origin"
	"idicn/internal/idicn/proxy"
	"idicn/internal/idicn/resolver"
	"idicn/internal/obs"
	"idicn/internal/overload"
)

func main() {
	demo := flag.Bool("demo", false, "run a one-shot fetch through the proxy and exit")
	contentDir := flag.String("content", "", "publish every file in this directory at startup")
	logRequests := flag.Bool("log-requests", false, "log one structured line per HTTP request to stderr")
	faultSpec := flag.String("faults", "", "fault-injection plan, e.g. 'resolver:blackout,from=300,to=600;origin:latency,d=20ms,p=0.5' (see internal/faults)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault plan's RNG; same seed, same faults")
	maxConcurrency := flag.Int("max-concurrency", 0, "cap on each component's adaptive concurrency limit (0 = 64)")
	queueDeadline := flag.Duration("queue-deadline", 0, "per-request admission queue wait budget; predicted-to-exceed requests are shed immediately (0 = 1s serving, 100ms benchmarking)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for in-flight requests before giving up")
	benchDaemon := flag.String("bench-daemon", "", "run the open-loop overload benchmark and append a JSON line to this file, then exit")
	flag.Parse()
	var logW io.Writer
	if *logRequests {
		logW = os.Stderr
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = faults.ParsePlan(*faultSpec, *faultSeed); err != nil {
			fmt.Fprintf(os.Stderr, "idicnd: %v\n", err)
			os.Exit(1)
		}
	}
	ocfg := overload.Config{
		MaxConcurrency: *maxConcurrency,
		QueueDeadline:  *queueDeadline,
	}
	if *benchDaemon != "" {
		if err := runBench(*benchDaemon, ocfg, *faultSpec, *faultSeed); err != nil {
			fmt.Fprintf(os.Stderr, "idicnd: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*demo, *contentDir, logW, plan, ocfg, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "idicnd: %v\n", err)
		os.Exit(1)
	}
}

// stack is the assembled idICN deployment: every component plus the
// metrics registry observing them. Tests build one against httptest
// listeners; main serves it on loopback ports.
type stack struct {
	registry *resolver.Registry
	origin   *origin.Server
	proxy    *proxy.Proxy
	metrics  *obs.Registry
	drainer  *overload.Drainer
	ctls     map[string]*overload.Controller // per-component admission controllers

	resolverURL string
	originURL   string
	proxyURL    string
	debugURL    string
}

// newStack wires the resolver, origin, and edge proxy together, wrapping
// each HTTP surface with request instrumentation and overload admission
// control. listen must start serving the handler and return its base URL.
// logW, when non-nil, receives one structured log line per request (the
// -log-requests flag). plan, when non-nil, injects the configured faults
// into each component's server side (the -faults flag), with per-kind
// counters in the metrics registry. ocfg shapes each component's admission
// controller; drainer, when non-nil, is consulted before admission and
// served on /healthz + /readyz (nil gets a stack-private drainer, so those
// endpoints always exist). The returned stack's debugURL serves
// /debug/metrics with live counters from every component.
func newStack(listen func(http.Handler) (string, error), logW io.Writer, plan *faults.Plan, ocfg overload.Config, drainer *overload.Drainer) (*stack, error) {
	metrics := obs.NewRegistry()
	if drainer == nil {
		drainer = &overload.Drainer{}
	}
	var logger obs.RequestHook
	if logW != nil {
		logger = obs.NewRequestLogger(logW, nil)
	}
	ctls := make(map[string]*overload.Controller)
	// Admission order, outside in: instrumentation sees every request
	// (sheds included, as 503s), the overload controller decides whether
	// the component does the work at all, and only admitted requests reach
	// the fault injector and the handler — so injected latency counts as
	// service time and feeds the adaptive limit.
	wrap := func(component string, h http.Handler) http.Handler {
		if plan != nil {
			inj := plan.Injector(component)
			inj.RegisterMetrics(metrics)
			h = inj.Middleware(h)
		}
		ctl := overload.NewController(ocfg)
		ctl.SetDraining(drainer.Draining)
		ctl.RegisterMetrics(metrics, component)
		ctls[component] = ctl
		h = ctl.Middleware(h)
		return obs.Instrument(component,
			obs.MultiHook(obs.NewHTTPMetrics(metrics, component), logger), h)
	}

	// Outgoing calls propagate the remaining request budget via the
	// X-ICN-Deadline header, so a downstream component never works on a
	// request its upstream has already written off.
	outbound := func() *http.Client {
		return &http.Client{Timeout: 10 * time.Second, Transport: overload.Transport(nil)}
	}

	// Name resolution system.
	registry := resolver.NewRegistry()
	resolverSrv := resolver.NewServer(registry)
	resolverSrv.RegisterMetrics(metrics)
	resolverURL, err := listen(wrap("resolver", resolverSrv))
	if err != nil {
		return nil, err
	}
	resolverClient := resolver.NewClient(resolverURL, outbound())

	// Content provider: origin + signing reverse proxy under a fresh
	// principal. The origin needs its own URL before construction, so the
	// listener serves through a late-bound closure.
	principal, err := names.NewPrincipal(nil)
	if err != nil {
		return nil, err
	}
	var org *origin.Server
	originURL, err := listen(wrap("origin", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		org.ServeHTTP(w, r)
	})))
	if err != nil {
		return nil, err
	}
	org = origin.New(principal, resolverClient, originURL)
	org.RegisterMetrics(metrics)

	// Edge proxy with PAC auto-configuration. Its brownout hook follows its
	// own admission controller: proxy pressure degrades proxy behavior.
	px := proxy.New(resolverClient, proxy.WithHTTPClient(outbound()))
	px.RegisterMetrics(metrics)
	proxyURL, err := listen(wrap("proxy", px))
	if err != nil {
		return nil, err
	}
	px.Brownout = ctls["proxy"].Tier

	// Debug server: live counters and histograms for every component, plus
	// the liveness/readiness pair the drain path flips.
	debugMux := http.NewServeMux()
	debugMux.Handle("/debug/metrics", metrics.Handler())
	debugMux.Handle("/healthz", drainer.Healthz())
	debugMux.Handle("/readyz", drainer.Readyz())
	// Profiles of the running daemon (go tool pprof <debug>/debug/pprof/profile):
	// on this listener only, which run binds to loopback.
	debugMux.HandleFunc("/debug/pprof/", pprof.Index)
	debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	debugURL, err := listen(debugMux)
	if err != nil {
		return nil, err
	}

	return &stack{
		registry:    registry,
		origin:      org,
		proxy:       px,
		metrics:     metrics,
		drainer:     drainer,
		ctls:        ctls,
		resolverURL: resolverURL,
		originURL:   originURL,
		proxyURL:    proxyURL,
		debugURL:    debugURL,
	}, nil
}

func run(demo bool, contentDir string, logW io.Writer, plan *faults.Plan, ocfg overload.Config, drainTimeout time.Duration) error {
	ctx := context.Background()

	// Every loopback server is registered with the drainer, so one SIGTERM
	// stops all accept loops and waits for in-flight requests together.
	drainer := &overload.Drainer{}
	listen := func(h http.Handler) (string, error) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := httpx.Start(lis, h)
		drainer.Manage(srv)
		return srv.URL(), nil
	}

	st, err := newStack(listen, logW, plan, ocfg, drainer)
	if err != nil {
		return err
	}
	fmt.Printf("resolver    %s\n", st.resolverURL)
	fmt.Printf("origin      %s (publisher %s)\n", st.originURL, st.origin.Principal().KeyHash())
	fmt.Printf("edge proxy  %s (PAC at %s/wpad.dat)\n", st.proxyURL, st.proxyURL)
	fmt.Printf("debug       %s/debug/metrics\n", st.debugURL)

	// DNS bridge: answers A queries for *.idicn.org with the proxy's
	// address so unmodified stub resolvers land at the edge proxy.
	proxyHost, _, _ := strings.Cut(strings.TrimPrefix(st.proxyURL, "http://"), ":")
	dns, err := dnsbridge.NewServer("127.0.0.1:0", names.Domain, []string{proxyHost}, 60)
	if err != nil {
		return err
	}
	defer dns.Close()
	fmt.Printf("dns bridge  %s (authoritative for %s)\n", dns.Addr(), names.Domain)

	// Publish demo content (steps P1, P2).
	pages := map[string]string{
		"welcome":  "Welcome to idICN: incrementally deployable information-centric networking.",
		"headline": "Less pain, most of the gain.",
	}
	for label, text := range pages {
		n, err := st.origin.Publish(ctx, label, "text/plain", []byte(text))
		if err != nil {
			return err
		}
		fmt.Printf("published   http://%s/  (label %q)\n", n.DNS(), label)
	}
	if contentDir != "" {
		published, err := st.origin.PublishDir(ctx, contentDir)
		if err != nil {
			return err
		}
		for label, n := range published {
			fmt.Printf("published   http://%s/  (file label %q)\n", n.DNS(), label)
		}
	}

	if demo {
		return runDemo(ctx, st.origin, st.proxyURL)
	}

	fmt.Println("\nserving; ctrl-c or SIGTERM to drain and exit")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig

	// Graceful drain: flip readiness, stop accepting, finish in-flight
	// requests within the bound, exit 0. A drain that cannot finish in time
	// returns the context error and exits non-zero — an honest failure
	// beats a silent connection reset.
	fmt.Printf("received %v; draining (up to %v)\n", s, drainTimeout)
	dctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	if err := drainer.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("drained cleanly")
	return nil
}

// runDemo fetches a published name through the edge proxy twice, showing
// the miss-then-hit behavior and signature verification.
func runDemo(ctx context.Context, org *origin.Server, proxyURL string) error {
	n, err := org.Principal().Name("welcome")
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, proxyURL+"/", nil)
		if err != nil {
			return err
		}
		req.Host = n.DNS()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // body fully read; nothing left to lose
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetch %d: status %s: %s", i, resp.Status, body)
		}
		fmt.Printf("\nfetch %d: X-Cache=%s\n  name   %s\n  body   %q\n  digest %s\n",
			i, resp.Header.Get("X-Cache"), n, body, resp.Header.Get("Digest"))
	}
	fmt.Printf("\norigin hits: %d (the second fetch was served by the edge cache)\n", org.OriginHits())
	return nil
}
