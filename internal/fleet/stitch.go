package fleet

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The fleet timeline stitcher: one Chrome trace combining the router's
// own decision record with every shard's virtual-time flight recording,
// each shard (and the router) rendered as its own lane group. The same
// timeline is producible two ways — live, by pulling GET /flight from
// every reachable shard, and offline, by replaying the shards' recorded
// arrival traces — and the two must agree byte for byte: shard flight
// recordings are pure functions of the arrival traces, and the router's
// wall-clock events travel as recorded data (RouterObsName), never
// recomputed. The two time domains (router wall clock, shard virtual
// time) share the axis but never share a stream, so canonical ordering
// is well defined and stable.

// RouterObsName is the file name for the router's own recording inside
// a fleet trace directory — deliberately not *.jsonl, so the shard
// arrival-trace glob (ReplayDir, StitchDir) never mistakes it for a
// shard.
const RouterObsName = "router.obs"

// StitchGroup maps a stitched stream to its timeline lane group: the
// segment before the first slash — the shard prefix for replayed or
// fetched shard streams ("s0/serve/…" → "s0"), "fleet" for the router's
// own ("fleet/job/…", "fleet/shard/…").
func StitchGroup(stream string) string {
	if i := strings.Index(stream, "/"); i >= 0 {
		return stream[:i]
	}
	return stream
}

// liveOnly reports whether a shard stream exists only in live runs and
// must be excluded from the stitch: des injection events record the
// wall-clock→virtual-time handoff, which a replay — spawning arrivals
// as ordinary processes — never performs (see des.applyInjection).
func liveOnly(stream string) bool { return stream == "injector" }

// StitchedEvents assembles the live fleet timeline: the router's
// recording plus every reachable shard's flight recording fetched over
// GET /flight, shard streams prefixed "<shard>/", merged in canonical
// order. Down shards contribute nothing — exactly like the offline
// stitch of a directory their trace was lost from.
func (rt *Router) StitchedEvents() ([]obs.Event, error) {
	evs := rt.obs.Canonical()
	rt.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, id := range rt.order {
		if s := rt.shards[id]; s.state != shardDown {
			targets = append(targets, target{id, s.URL})
		}
	}
	rt.mu.Unlock()
	for _, t := range targets {
		resp, err := rt.do(http.MethodGet, t.url+"/flight", nil, submitTimeout)
		if err != nil {
			return nil, fmt.Errorf("fleet: fetching flight recording from %s: %w", t.id, err)
		}
		if resp.StatusCode != http.StatusOK {
			drainBody(resp)
			return nil, fmt.Errorf("fleet: shard %s /flight: status %d", t.id, resp.StatusCode)
		}
		shardEvs, err := obs.ReadJSONL(resp.Body)
		drainBody(resp)
		if err != nil {
			return nil, fmt.Errorf("fleet: parsing shard %s flight recording: %w", t.id, err)
		}
		for _, e := range shardEvs {
			if liveOnly(e.Stream) {
				continue
			}
			e.Stream = t.id + "/" + e.Stream
			evs = append(evs, e)
		}
	}
	obs.Sort(evs)
	return evs, nil
}

// WriteTimeline renders the live stitched fleet timeline as Chrome
// trace-event JSON with per-shard lane groups (GET /timeline).
func (rt *Router) WriteTimeline(w io.Writer) error {
	evs, err := rt.StitchedEvents()
	if err != nil {
		return err
	}
	return obs.WriteChromeGrouped(w, evs, StitchGroup)
}

// StitchDir assembles the same timeline offline from a trace directory:
// every shard arrival trace (*.jsonl) is replayed into one shared flight
// recorder under the prefix "<shard>/" (the obs.SetPrefix multi-run
// seam), the router's recording is read back from RouterObsName when
// present, and the merge is canonical.
func StitchDir(dir string, opt serve.ReplayOptions) ([]obs.Event, error) {
	paths, err := shardTraces(dir)
	if err != nil {
		return nil, err
	}
	rec := obs.New()
	for _, p := range paths {
		if _, _, err := replayShard(p, opt, rec); err != nil {
			return nil, err
		}
	}
	evs := rec.Canonical()
	rp := filepath.Join(dir, RouterObsName)
	if f, err := os.Open(rp); err == nil {
		revs, rerr := obs.ReadJSONL(f)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("fleet: reading %s: %w", rp, rerr)
		}
		evs = append(evs, revs...)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	obs.Sort(evs)
	return evs, nil
}

// WriteStitchedDir renders StitchDir's merge as Chrome trace-event JSON
// with per-shard lane groups — byte-identical to the live /timeline of
// the run that recorded the directory, which ran on the default engine.
func WriteStitchedDir(w io.Writer, dir string) error {
	evs, err := StitchDir(dir, serve.ReplayOptions{})
	if err != nil {
		return err
	}
	return obs.WriteChromeGrouped(w, evs, StitchGroup)
}
