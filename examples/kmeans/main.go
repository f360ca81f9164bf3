// Command kmeans iterates the paper's K-Means Clustering benchmark to
// convergence: each iteration is one GPMR job (as in the paper, which
// benchmarks a single iteration), with GPU-side Accumulation and a
// per-center Partitioner. The gathered sums become the next iteration's
// centers, demonstrating the i-MapReduce-style iterative pattern on GPMR.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/apps/kmc"
	"repro/internal/des"
)

func main() {
	gpus := flag.Int("gpus", 4, "simulated GPU count")
	points := flag.Int64("points", 8<<20, "virtual point count")
	iters := flag.Int("iters", 8, "max iterations")
	flag.Parse()

	var centers [][]float32
	var total des.Time
	for it := 0; it < *iters; it++ {
		b := kmc.NewJob(kmc.Params{
			Points:  *points,
			GPUs:    *gpus,
			PhysMax: 1 << 16,
			Centers: 16,
		})
		if centers != nil {
			copyCenters(b.Centers, centers)
		}
		res, err := b.Job.Run()
		if err != nil {
			log.Fatal(err)
		}
		total += res.Trace.Wall

		sums := make(map[uint32]float64)
		for i, k := range res.Output.Keys {
			sums[k] += res.Output.Vals[i]
		}
		next := kmc.NewCenters(sums, 16, b.Job.Config.VirtFactor)
		moved := movement(centers, next)
		centers = next
		fmt.Printf("iteration %d: wall %v, center movement %.4f\n", it+1, res.Trace.Wall, moved)
		if it > 0 && moved < 1e-3 {
			fmt.Println("converged")
			break
		}
	}
	fmt.Printf("total simulated time: %v\n", total)
	fmt.Println("final centers:")
	for i, c := range centers {
		fmt.Printf("  c%-2d (%7.3f, %7.3f, %7.3f, %7.3f)\n", i, c[0], c[1], c[2], c[3])
	}
}

func copyCenters(dst, src [][]float32) {
	for i := range dst {
		copy(dst[i], src[i])
	}
}

func movement(prev, next [][]float32) float64 {
	if prev == nil {
		return math.Inf(1)
	}
	var worst float64
	for i := range prev {
		var d float64
		for j := range prev[i] {
			diff := float64(prev[i][j] - next[i][j])
			d += diff * diff
		}
		if d > worst {
			worst = d
		}
	}
	return math.Sqrt(worst)
}
