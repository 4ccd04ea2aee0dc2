// als-recommender trains a collaborative-filtering model with alternating
// least squares on the SYN-GL-like bipartite rating graph, surviving a
// machine crash via Rebirth recovery, then prints recommendations for a
// sample user. Demonstrates vector-valued vertex programs (latent factor
// solves) on the fault-tolerant engine.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"imitator/pkg/imitator"
)

const (
	numUsers = 7000 // see the syn-gl catalog entry
	dim      = 8
	lambda   = 0.05
)

func main() {
	g := imitator.MustLoadDataset("syn-gl")
	prog := imitator.NewALS(numUsers, dim, lambda)

	cfg := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(10),
		imitator.WithFailures(imitator.Crash(4, imitator.FailBeforeBarrier, 3)),
	)

	res, err := imitator.Run(cfg, g, prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ALS (d=%d, lambda=%.2f) on %d users x %d items, %d ratings\n",
		dim, lambda, numUsers, g.NumVertices()-numUsers, g.NumEdges()/2)
	fmt.Printf("trained %d iterations in %.3f simulated seconds; RMSE %.4f\n",
		res.Iterations, res.SimSeconds, rmse(g, res.Values))
	for _, r := range res.Recoveries {
		fmt.Printf("survived crash: %s\n", r)
	}

	// Recommend unrated items for one user.
	const user imitator.VertexID = 42
	rated := map[imitator.VertexID]bool{}
	g.OutEdges(user, func(_ int, e imitator.Edge) { rated[e.Dst] = true })
	type scored struct {
		item  imitator.VertexID
		score float64
	}
	var recs []scored
	for item := numUsers; item < g.NumVertices(); item++ {
		it := imitator.VertexID(item)
		if rated[it] {
			continue
		}
		recs = append(recs, scored{it, dot(res.Values[user], res.Values[it])})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].score > recs[b].score })
	fmt.Printf("top recommendations for user %d (%d items already rated):\n", user, len(rated))
	for _, r := range recs[:5] {
		fmt.Printf("  item %5d  predicted rating %.2f\n", r.item, r.score)
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func rmse(g *imitator.Graph, values [][]float64) float64 {
	var se float64
	var n int
	for i := range g.NumEdges() {
		e := g.Edge(i)
		if int(e.Src) >= numUsers {
			continue
		}
		d := dot(values[e.Src], values[e.Dst]) - e.Weight
		se += d * d
		n++
	}
	return math.Sqrt(se / float64(n))
}
