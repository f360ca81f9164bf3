package bench

import "testing"

func TestMultijobPoliciesCompareOnOneStream(t *testing.T) {
	rows, traces, err := Multijob(Options{PhysBudget: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(traces) != 3 {
		t.Fatalf("got %d rows / %d traces, want 3 policies", len(rows), len(traces))
	}
	byPolicy := map[string]MultijobRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.Jobs != MultijobJobs {
			t.Errorf("%s completed %d jobs, want %d", r.Policy, r.Jobs, MultijobJobs)
		}
	}
	fifo, ok1 := byPolicy["fifo-exclusive"]
	wfair, ok2 := byPolicy["weighted-fair"]
	if !ok1 || !ok2 {
		t.Fatalf("missing policies in %v", rows)
	}

	// The headline claim: sharing the cluster cuts the small jobs' tail
	// latency versus draining the queue one exclusive job at a time.
	if wfair.P95Small >= fifo.P95Small {
		t.Errorf("weighted-fair p95 small-job latency %v >= fifo-exclusive %v",
			wfair.P95Small, fifo.P95Small)
	}
	if wfair.MeanWait >= fifo.MeanWait {
		t.Errorf("weighted-fair mean wait %v >= fifo-exclusive %v", wfair.MeanWait, fifo.MeanWait)
	}
	if wfair.Jain <= fifo.Jain {
		t.Errorf("weighted-fair Jain %f <= fifo-exclusive %f", wfair.Jain, fifo.Jain)
	}

	// Every policy sees the same arrival stream and finishes every job.
	for _, ct := range traces {
		for i := range ct.Jobs {
			j := &ct.Jobs[i]
			if j.Trace == nil {
				t.Errorf("%s job %d (%s) has no trace", ct.Policy.Kind, j.ID, j.Name)
			}
			if j.Finish < j.Admit || j.Admit < j.Arrival {
				t.Errorf("%s job %d times out of order: arr %v admit %v finish %v",
					ct.Policy.Kind, j.ID, j.Arrival, j.Admit, j.Finish)
			}
			if other := &traces[0].Jobs[i]; j.Arrival != other.Arrival || j.Name != other.Name {
				t.Errorf("policies saw different streams: job %d is %s@%v vs %s@%v",
					i, j.Name, j.Arrival, other.Name, other.Arrival)
			}
		}
	}

	// Exclusive gangs get their full request; fixed-share caps at 4.
	for i := range traces[0].Jobs {
		if j := &traces[0].Jobs[i]; j.Granted != j.Want {
			t.Errorf("fifo-exclusive granted %d of %d to job %d", j.Granted, j.Want, j.ID)
		}
		if j := &traces[1].Jobs[i]; j.Granted > 4 {
			t.Errorf("fixed-share(4) granted %d ranks to job %d", j.Granted, j.ID)
		}
	}
}
