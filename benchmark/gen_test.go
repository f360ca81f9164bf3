package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	gpmr "repro"
)

func TestArrivalScheduleIsSeededAndEvenlySpaced(t *testing.T) {
	const n, rate = 800, 100.0
	a, b, other := arrivalSchedule(1, n, rate), arrivalSchedule(1, n, rate), arrivalSchedule(2, n, rate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("another seed gave the same schedule")
	}
	for i := range a {
		slot := float64(i) / rate
		if off := a[i].Seconds() - slot; off < 0 || off >= 0.2/rate+1e-9 {
			t.Fatalf("arrival %d is due %.6f s after its slot, want within [0, %.4f)", i, off, 0.2/rate)
		}
	}
	if got := a[n-1].Seconds(); math.Abs(got-n/rate) > 1/rate {
		t.Errorf("the last of %d arrivals at %g/s is due at %.3f s", n, rate, got)
	}
}

func TestJobBodiesAreSeeded(t *testing.T) {
	render := func(seed int64) []byte { return bytes.Join(jobBodies(seed, 100, 300, 4), []byte("\n")) }
	if !bytes.Equal(render(1), render(1)) {
		t.Fatal("the same seed gave different job specs")
	}
	if bytes.Equal(render(1), render(2)) {
		t.Fatal("another seed gave the same job specs")
	}
	// Whatever the seed, the same jobs: each kind gets the same workload seeds.
	jobsOf := func(seed int64) (map[string]bool, map[string]bool) {
		jobs, tenants := map[string]bool{}, map[string]bool{}
		for i, raw := range jobBodies(seed, 100, 300, 4) {
			var body struct {
				Tenant string           `json:"tenant"`
				Kind   string           `json:"kind"`
				Params map[string]int64 `json:"params"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if body.Kind != catalogKinds[i%3] {
				t.Errorf("job %d is %s, want kinds round-robin", i, body.Kind)
			}
			if s := body.Params["seed"]; s <= 100 || s > 400 {
				t.Errorf("job %d has workload seed %d outside 101..400", i, s)
			}
			key := fmt.Sprintf("%s/%d/%s", body.Kind, body.Params["seed"], body.Tenant)
			if jobs[key] {
				t.Errorf("job %s is submitted twice", key)
			}
			jobs[key] = true
			tenants[body.Tenant] = true
		}
		return jobs, tenants
	}
	jobs1, tenants := jobsOf(1)
	jobs2, _ := jobsOf(2)
	if !reflect.DeepEqual(jobs1, jobs2) {
		t.Error("seeds 1 and 2 submit different sets of jobs")
	}
	if len(tenants) != 4 {
		t.Errorf("300 jobs used %d tenants, want 4", len(tenants))
	}
}

func TestReadMixProportions(t *testing.T) {
	mix := readMix(1, 1000, 50)
	if !reflect.DeepEqual(mix, readMix(1, 1000, 50)) {
		t.Fatal("the same seed gave a different mix")
	}
	if reflect.DeepEqual(mix, readMix(2, 1000, 50)) {
		t.Fatal("another seed gave the same mix")
	}
	var count [numReadKinds]int
	for _, q := range mix {
		count[q.Kind]++
		if q.Job < 0 || q.Job >= 50 {
			t.Fatalf("request aims at job %d of 50", q.Job)
		}
	}
	for k, pct := range readMixPercent {
		if count[k] != 10*pct {
			t.Errorf("%s: %d of 1000 requests, want %d", readKindNames[k], count[k], 10*pct)
		}
	}
}

func TestSampleOneIn(t *testing.T) {
	keep := sampleOneIn(1, 1600, 16)
	if !reflect.DeepEqual(keep, sampleOneIn(1, 1600, 16)) {
		t.Fatal("the same seed gave a different sample")
	}
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n < 60 || n > 140 {
		t.Errorf("1-in-16 of 1600 kept %d", n)
	}
	one := sampleOneIn(1, 3, 16)
	if !one[0] && !one[1] && !one[2] {
		t.Error("a sample of three items kept none")
	}
}

// specShape renders what the scheduler sees of a generated stream.
func specShape(specs []gpmr.JobSpec) string {
	var buf bytes.Buffer
	for _, sp := range specs {
		job := sp.Job.(*gpmr.Scheduled[uint32]).Job
		fmt.Fprintf(&buf, "%d %s %d", sp.At, job.Config.Name, job.Config.GPUs)
		for _, c := range job.Chunks {
			fmt.Fprintf(&buf, " %d", c.(noopChunk).key)
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

func TestNoopSpecsAreSeededAndBalanced(t *testing.T) {
	const n = 400
	a := noopSpecs(1, n, false, nil)
	if specShape(a) != specShape(noopSpecs(1, n, false, nil)) {
		t.Fatal("the same seed gave a different stream")
	}
	if specShape(a) == specShape(noopSpecs(2, n, false, nil)) {
		t.Fatal("another seed gave the same stream")
	}
	gangs := map[int]int{}
	var last gpmr.Time
	for i, sp := range a {
		job := sp.Job.(*gpmr.Scheduled[uint32]).Job
		gangs[job.Config.GPUs]++
		if len(job.Chunks) != 2*job.Config.GPUs {
			t.Fatalf("job %d has %d chunks for %d GPUs", i, len(job.Chunks), job.Config.GPUs)
		}
		if gap := sp.At - last; gap < 200_000 || gap > 600_000 {
			t.Fatalf("job %d arrives %d ns after the previous one, want 0.2-0.6 ms", i, gap)
		}
		last = sp.At
	}
	for _, g := range []int{1, 2, 4, 8} {
		if gangs[g] != n/4 {
			t.Errorf("%d jobs want %d GPUs, want %d", gangs[g], g, n/4)
		}
	}
	for i, sp := range noopSpecs(1, 40, true, nil) {
		if sp.At != 0 {
			t.Fatalf("burst job %d arrives at %d, want 0", i, sp.At)
		}
	}
}
