// Command gpmrd is the GPMR online job service: a long-running daemon
// that serves MapReduce jobs over HTTP against one shared simulated GPU
// cluster. Wall-clock arrivals are mapped onto virtual time at the HTTP
// boundary; admission control (bounded queue, per-tenant quotas) sheds
// load the cluster cannot absorb; and every arrival is recorded to a
// trace that replays byte-identically through the offline path.
//
// Endpoints (see serve.NewHandler):
//
//	POST   /jobs                 submit {"tenant","kind","params",...} → 202 JobInfo
//	GET    /jobs                 list all job records
//	GET    /jobs/{id}            one job record
//	GET    /jobs/{id}/timeline   the job's flight-recorder timeline (Chrome trace JSON)
//	GET    /jobs/{id}/explain    the job's phase breakdown + bottleneck attribution
//	                             (?format=text for prose, JSON otherwise)
//	GET    /jobs/{id}/output     a completed job's canonical output text
//	DELETE /jobs/{id}            cancel a queued job
//	GET    /flight               the whole session's flight recording (JSONL) —
//	                             what gpmrfleet stitches into its fleet timeline
//	GET    /metrics              Prometheus text exposition (counters + histograms)
//	GET    /healthz              liveness: 200 "ok", or 503 "draining"
//	POST   /fleet/register       gpmrfleet registration handshake
//	POST   /drain                drain handshake: answers with the final report
//
// The cluster packs four GPUs per node (all of them on one node when
// -gpus < 4) and simulates on one DES event loop with kernels inline;
// the 16 most recent completed jobs keep their output.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof and expvar under /debug/vars.
//
// Shutdown (SIGINT/SIGTERM or POST /drain) shuts the HTTP listener down
// gracefully — in-flight submissions get terminal answers, never
// connection resets — then waits for every admitted job to finish,
// writes the arrival trace, and prints the final report to stdout.
// Replaying that trace:
//
//	gpmrd -replay trace.jsonl
//
// prints a byte-identical report — the CI smoke test diffs the two.
package main

import (
	"context"
	_ "expvar" // register /debug/vars on the debug mux
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the debug mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8373", "HTTP listen address")
	gpus := flag.Int("gpus", 16, "cluster GPU ranks")
	policy := flag.String("policy", "weighted-fair", "admission policy: fifo-exclusive|fixed-share|weighted-fair")
	share := flag.Int("share", 4, "per-gang rank cap (fixed-share only)")
	reserve := flag.Bool("reserve", false, "EASY backfill reservation for the blocked queue head")
	preempt := flag.Bool("preempt", false, "checkpoint-preempt running gangs for higher classes, and grow opted-in molded gangs back when ranks free up (weighted-fair only); also enables DELETE of running jobs")
	queue := flag.Int("queue", 16, "admission queue bound (negative = unbounded)")
	quota := flag.Int("quota", 0, "per-tenant in-flight cap (0 = unlimited)")
	scale := flag.Float64("timescale", 1, "virtual seconds per wall second at the boundary")
	phys := flag.Int("phys", 1<<16, "physical element budget per job")
	tracePath := flag.String("trace", "", "record the arrival trace to this file (JSONL)")
	replayPath := flag.String("replay", "", "replay a recorded trace offline and print the report")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. 127.0.0.1:8374)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "graceful HTTP shutdown window for in-flight requests")
	flag.Parse()

	if *debugAddr != "" {
		// The blank pprof/expvar imports register on the default mux;
		// serving it on a second listener keeps profiling off the API port.
		go func() {
			log.Printf("gpmrd: debug endpoints (/debug/pprof, /debug/vars) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("gpmrd: debug server: %v", err)
			}
		}()
	}
	if *replayPath != "" {
		if err := replay(*replayPath); err != nil {
			log.Fatalf("gpmrd: %v", err)
		}
		return
	}
	kind, err := sched.ParsePolicyKind(*policy)
	if err != nil {
		log.Fatalf("gpmrd: %v", err)
	}
	pol := sched.Policy{Kind: kind, Reserve: *reserve, Preempt: *preempt}
	if kind == sched.FixedShare {
		// Only fixed-share reads the cap; recording it under any other
		// policy would put a knob in the trace header the operator never set.
		pol.Share = *share
	}
	if err := pol.Validate(*gpus); err != nil {
		log.Fatalf("gpmrd: %v", err)
	}
	cc := cluster.DefaultConfig(*gpus)
	// The live daemon always carries a flight recorder: it feeds the
	// per-job timeline endpoint and recording never perturbs virtual time.
	cc.Obs = obs.New()
	cfg := serve.Config{
		Cluster:     cc,
		Policy:      pol,
		Catalog:     serve.DefaultCatalog(*phys),
		MaxQueue:    *queue,
		Quota:       *quota,
		TimeScale:   *scale,
		KeepOutputs: 16,
	}
	if err := live(cfg, *addr, *tracePath, *grace); err != nil {
		log.Fatalf("gpmrd: %v", err)
	}
}

// replay runs the offline path: same admission code, no wall clock.
func replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := serve.ReadTrace(f)
	if err != nil {
		return err
	}
	rep, err := serve.Replay(tr, serve.ReplayOptions{})
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	return nil
}

// lazyFile defers file creation to the first write, so a daemon that
// fails before recording anything never leaves a truncated trace file
// behind.
type lazyFile struct {
	path string
	f    *os.File
	err  error
}

func (l *lazyFile) Write(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		if l.f, l.err = os.Create(l.path); l.err != nil {
			return 0, l.err
		}
	}
	return l.f.Write(p)
}

// Close closes the file if it was ever created.
func (l *lazyFile) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}

// live serves cfg on addr until a signal or POST /drain, then drains and
// prints the report.
func live(cfg serve.Config, addr, tracePath string, grace time.Duration) error {
	var traceF *lazyFile
	if tracePath != "" {
		// Lazily created on the first trace write — which can only happen
		// once Start has succeeded — and closed on every exit path.
		traceF = &lazyFile{path: tracePath}
		cfg.TraceW = traceF
		defer func() {
			if err := traceF.Close(); err != nil {
				log.Printf("gpmrd: closing trace file: %v", err)
			}
		}()
	}
	sv, err := serve.Start(cfg)
	if err != nil {
		return err
	}
	// The drain endpoint and POSIX signals converge on one stop channel;
	// either way the listener shuts down gracefully before sv.Drain, so
	// accepted submissions reach the admission path and get answers.
	stop := make(chan struct{})
	h := serve.NewHandler(sv, serve.HandlerConfig{OnDrain: func() { close(stop) }})
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gpmrd: serving %d GPUs (%d/node) under %s on %s", cfg.Cluster.GPUs, cfg.Cluster.GPUsPerNode, cfg.Policy.Kind, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("gpmrd: %v — draining", s)
	case <-stop:
		log.Printf("gpmrd: drain requested — shutting down")
	}
	// Graceful shutdown: stop accepting connections but let in-flight
	// requests finish (a racing POST /jobs gets its 202/429/503, never a
	// connection reset). srv.Close would abort them mid-write.
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("gpmrd: http shutdown: %v", err)
	}
	rep, err := sv.Drain()
	if err != nil {
		return err
	}
	if traceF != nil {
		log.Printf("gpmrd: arrival trace written to %s", tracePath)
	}
	// The report is the only thing on stdout: a replay of the recorded
	// trace must print byte-identical text.
	fmt.Print(rep.String())
	return nil
}
