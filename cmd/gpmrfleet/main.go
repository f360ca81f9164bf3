// Command gpmrfleet is the fleet front door: a router that federates
// many gpmrd shards behind one HTTP API. Tenants are consistent-hashed
// onto shards (bounded-load variant); shards are health-checked and a
// lost shard's unfinished jobs are re-admitted onto survivors.
//
// Live mode fronts running gpmrd daemons:
//
//	gpmrd -addr :8401 -trace s0.jsonl &
//	gpmrd -addr :8402 -trace s1.jsonl &
//	gpmrfleet -addr :8400 -shard s0=http://127.0.0.1:8401 -shard s1=http://127.0.0.1:8402
//
// Endpoints (see fleet.NewHandler): the gpmrd job API, plus GET /shards
// for ring membership and POST /drain, which drains every shard and
// answers with the merged fleet report. On SIGINT/SIGTERM or /drain the
// router shuts down gracefully and prints that merged report to stdout.
//
// Replay mode reproduces it offline from the shards' arrival traces:
//
//	gpmrfleet -replay tracedir/
//
// replays every *.jsonl shard trace through the offline path (one event
// loop per shard, kernels inline, as gpmrd runs) and prints a
// byte-identical merged report — the fleet smoke test diffs the two.
//
// Causal tracing: every submission is stamped with a trace ID (the
// fleet tag, unless the submitter set one), the router records its own
// decisions (route, retry, reroute, failover, shard state
// transitions) into a flight recorder saved via -obs, and GET /timeline
// serves the live stitched fleet timeline — router lanes plus every
// shard's flight recording. Offline,
//
//	gpmrfleet -replay tracedir/ -timeline
//
// rebuilds the identical timeline from the shard traces plus the saved
// router.obs — byte for byte, the smoke test diffs that too.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// shardFlags collects repeated -shard id=url flags.
type shardFlags []fleet.Shard

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sh := range *s {
		parts[i] = sh.ID + "=" + sh.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*s = append(*s, fleet.Shard{ID: id, URL: url})
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "shard as id=url (repeatable)")
	addr := flag.String("addr", "127.0.0.1:8400", "HTTP listen address")
	loadFactor := flag.Float64("load-factor", 0, "bounded-load factor c (0 = default 1.25, negative = plain hashing)")
	probe := flag.Duration("probe", 500*time.Millisecond, "shard health-check interval")
	failAfter := flag.Int("fail-after", 3, "consecutive probe failures before a shard is down")
	replayDir := flag.String("replay", "", "replay every shard trace (*.jsonl) in this directory and print the merged report")
	obsPath := flag.String("obs", "", "write the router's own flight recording (JSONL) here at exit")
	timeline := flag.String("timeline", "", "with -replay: write the stitched fleet timeline (Chrome trace JSON) here instead of the report ('-' = stdout)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "graceful HTTP shutdown window for in-flight requests")
	flag.Parse()

	if *replayDir != "" {
		if *timeline != "" {
			if err := stitchTo(*timeline, *replayDir); err != nil {
				log.Fatalf("gpmrfleet: %v", err)
			}
			return
		}
		rep, err := fleet.ReplayDir(*replayDir, serve.ReplayOptions{})
		if err != nil {
			log.Fatalf("gpmrfleet: %v", err)
		}
		fmt.Print(rep)
		return
	}
	if *timeline != "" {
		log.Fatal("gpmrfleet: -timeline needs -replay (live mode serves GET /timeline instead)")
	}
	if len(shards) == 0 {
		log.Fatal("gpmrfleet: need at least one -shard id=url (or -replay dir)")
	}
	cfg := fleet.Config{
		Shards:        shards,
		LoadFactor:    *loadFactor,
		ProbeInterval: *probe,
		FailAfter:     *failAfter,
		Obs:           obs.New(),
	}
	if err := live(cfg, *addr, *grace, *obsPath); err != nil {
		log.Fatalf("gpmrfleet: %v", err)
	}
}

// stitchTo writes the offline stitched fleet timeline to path ('-' for
// stdout).
func stitchTo(path, dir string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return fleet.WriteStitchedDir(w, dir)
}

func live(cfg fleet.Config, addr string, grace time.Duration, obsPath string) error {
	rt, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	rt.Start()

	// The drain endpoint and POSIX signals converge on one stop channel;
	// either way the listener shuts down gracefully so in-flight
	// submissions get terminal answers.
	stop := make(chan struct{})
	h := fleet.NewHandler(rt, fleet.HandlerConfig{OnDrain: func() { close(stop) }})
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gpmrfleet: routing %d shards on %s", len(cfg.Shards), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("gpmrfleet: %v — draining the fleet", s)
	case <-stop:
		log.Printf("gpmrfleet: drain requested — shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("gpmrfleet: http shutdown: %v", err)
	}
	// Idempotent: after a POST /drain this returns the handshake's cached
	// responses; on a signal it performs the drain now.
	resps, err := rt.Drain()
	if err != nil {
		log.Printf("gpmrfleet: drain: %v", err)
	}
	// The router's own recording, saved beside the shard traces, lets
	// -replay -timeline rebuild the stitched fleet timeline offline.
	if obsPath != "" {
		f, err := os.Create(obsPath)
		if err != nil {
			log.Printf("gpmrfleet: obs: %v", err)
		} else {
			if err := rt.WriteObs(f); err != nil {
				log.Printf("gpmrfleet: obs: %v", err)
			}
			f.Close()
		}
	}
	// The merged report is the only thing on stdout: a replay of the
	// shard traces must print byte-identical text.
	fmt.Print(fleet.Merge(resps))
	return nil
}
