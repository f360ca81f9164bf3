//go:build identity

package bench

// The identity build tag checks the second half of testdata/identity.sum —
// every experiment at gpmrbench's default -phys, gpmrsim's deep dives and
// the gpmrd replays — and runs the full apps × GPUs × backend/steal/GPUDirect
// invariance matrices instead of one cell per app:
//
//	go test -tags identity -run Identity ./internal/bench
//	go test -race -tags identity ./...
func init() { full = true }
