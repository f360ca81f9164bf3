package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Merge renders the fleet-level report from per-shard drain responses:
// one banner-framed shard report per shard, ordered by shard ID, then a
// fleet summary line over the summed admission counters. A live drain
// and a replay of the same shard traces must produce byte-identical
// text — that equality is the fleet's correctness proof.
func Merge(resps []serve.DrainResponse) string {
	sorted := append([]serve.DrainResponse(nil), resps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	var b strings.Builder
	var submitted, done, failed, cancelled, rejected int64
	for _, r := range sorted {
		fmt.Fprintf(&b, "=== shard %s epoch %d ===\n", r.Shard, r.Epoch)
		b.WriteString(r.Report)
		if !strings.HasSuffix(r.Report, "\n") {
			b.WriteByte('\n')
		}
		submitted += r.Submitted
		done += r.Done
		failed += r.Failed
		cancelled += r.Cancelled
		rejected += r.Rejected
	}
	fmt.Fprintf(&b, "fleet: %d shards  %d submitted  %d done  %d failed  %d cancelled  %d rejected\n",
		len(sorted), submitted, done, failed, cancelled, rejected)
	return b.String()
}

// ReplayDir replays every shard arrival trace in dir (*.jsonl, one per
// shard) through the offline path and merges the reports exactly as a
// live drain would: the output must match the live fleet's merged
// report byte for byte.
func ReplayDir(dir string, opt serve.ReplayOptions) (string, error) {
	paths, err := shardTraces(dir)
	if err != nil {
		return "", err
	}
	var resps []serve.DrainResponse
	for _, p := range paths {
		h, rep, err := replayShard(p, opt, nil)
		if err != nil {
			return "", err
		}
		resps = append(resps, rep.DrainResponse(h.Shard, h.Epoch))
	}
	return Merge(resps), nil
}

// shardTraces lists dir's shard arrival traces (*.jsonl) in path order.
func shardTraces(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("fleet: no shard traces (*.jsonl) in %s", dir)
	}
	sort.Strings(paths)
	return paths, nil
}

// replayShard is the one offline walk over a shard arrival trace: read
// it, name the shard, replay it. It returns the trace header with Shard
// always set. With rec set the replay records into it under the prefix
// "<shard>/" (the obs.SetPrefix multi-run seam).
func replayShard(path string, opt serve.ReplayOptions, rec *obs.Recorder) (serve.Header, *serve.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return serve.Header{}, nil, err
	}
	tr, err := serve.ReadTrace(f)
	f.Close()
	if err != nil {
		return serve.Header{}, nil, fmt.Errorf("fleet: reading %s: %w", path, err)
	}
	h := tr.Header
	if h.Shard == "" {
		// An unregistered shard's trace: fall back to the file name so the
		// merge order is still deterministic.
		h.Shard = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if rec != nil {
		rec.SetPrefix(h.Shard + "/")
		opt.Obs = rec
	}
	rep, err := serve.Replay(tr, opt)
	if err != nil {
		return serve.Header{}, nil, fmt.Errorf("fleet: replaying %s: %w", path, err)
	}
	return h, rep, nil
}
