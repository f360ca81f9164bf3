package bench

import (
	"maps"
	"math"

	"repro/internal/des"
	"repro/internal/serve"
	"repro/internal/workload"
)

// jobMix is the kind mix the scheduled experiments (multijob, online, slo,
// fleet) draw their submissions from, as request templates: every arrival
// is a copy of one entry carrying its own seed.
var jobMix = []serve.Request{
	{Kind: "wo", Params: serve.Params{"bytes": 4 << 20, "gpus": 2}},                            // small word-occurrence query
	{Kind: "kmc", Params: serve.Params{"points": 4 << 20, "gpus": 2}},                          // small k-means iteration
	{Kind: "sio", Params: serve.Params{"elements": 8 << 20, "gpus": 4, "chunkcap": 1 << 20}},   // medium sparse-integer scan
	{Kind: "sio", Params: serve.Params{"elements": 32 << 20, "gpus": 12, "chunkcap": 1 << 20}}, // large scan — the gang that makes others queue
}

// withParams returns r with over laid on a copy of its parameters.
func withParams(r serve.Request, over serve.Params) serve.Request {
	r.Params = maps.Clone(r.Params)
	maps.Copy(r.Params, over)
	return r
}

// arrival is one drawn submission: a copy of mix[kind] stamped with its
// slot, arrival time and seed.
type arrival struct {
	serve.Arrival
	kind int
}

// arrivals draws a seeded Poisson-ish stream of n submissions: per slot an
// exponential inter-arrival gap of mean gapMs, then a uniform pick from
// mix; the job seed varies per slot so inputs differ across the stream.
// salt decorrelates the experiments' streams. A pure function of its
// arguments, so every cell of an experiment sees byte-identical
// submissions and two runs are bit-identical.
func arrivals(o Options, salt uint64, n int, gapMs float64, mix []serve.Request) []arrival {
	rng := workload.NewRNG(o.Seed + salt)
	out := make([]arrival, n)
	var at des.Time
	for i := range out {
		at += des.FromSeconds(gapMs / 1e3 * -math.Log(1-rng.Float64()))
		kind := rng.Intn(len(mix))
		req := withParams(mix[kind], serve.Params{"seed": int64(o.Seed) + int64(i)*1000})
		out[i] = arrival{Arrival: serve.Arrival{Seq: i, At: at, Request: req}, kind: kind}
	}
	return out
}

// arrivalEvents is arrivals as a recorded trace body, the tenants taking
// turns.
func arrivalEvents(o Options, salt uint64, n int, gapMs float64, mix []serve.Request, tenants []string) []serve.Event {
	as := arrivals(o, salt, n, gapMs, mix)
	evs := make([]serve.Event, n)
	for i := range as {
		as[i].Tenant = tenants[i%len(tenants)]
		evs[i] = serve.Event{Arrive: &as[i].Arrival}
	}
	return evs
}
