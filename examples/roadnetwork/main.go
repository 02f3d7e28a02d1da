// Roadnetwork: a synthetic city road network (a planar grid with random
// diagonal shortcuts and travel-time weights), decomposed with the planar
// fundamental-cycle strategy, serving (1+ε)-approximate travel-time
// queries, with a stretch audit against exact Dijkstra.
//
// This is the workload the paper's object-location results target:
// planar-like networks where exact all-pairs storage is quadratic but
// separator labels stay logarithmic.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"pathsep"
	"pathsep/internal/embed"
	"pathsep/internal/shortest"
)

func main() {
	const side = 28 // 784 intersections
	rng := rand.New(rand.NewSource(42))

	// Travel times: arterial roads are fast (weight ~1), side streets
	// slow (~4).
	w := func(u, v int, r *rand.Rand) float64 {
		if u%side == side/2 || v%side == side/2 || u/side == side/2 {
			return 1 + r.Float64()
		}
		return 3 + 2*r.Float64()
	}
	city := embed.GridDiagonals(side, side, w, rng)
	g := city.G
	fmt.Printf("city: %d intersections, %d road segments\n", g.N(), g.M())

	start := time.Now()
	dec, err := pathsep.Decompose(g, pathsep.Options{
		Strategy:  pathsep.StrategyPlanar,
		Embedding: city,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposed in %v: depth %d, max %d separator paths per level\n",
		time.Since(start).Round(time.Millisecond), dec.Depth, dec.MaxK)

	start = time.Now()
	orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{
		Epsilon: 0.1,
		Mode:    pathsep.OraclePortals,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle built in %v: %d entries (%.1f per intersection)\n",
		time.Since(start).Round(time.Millisecond), orc.NumPortals(),
		float64(orc.NumPortals())/float64(g.N()))

	// Audit 200 random trips against exact Dijkstra.
	worst, sum, count := 1.0, 0.0, 0
	var oracleTime, dijkstraTime time.Duration
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		t0 := time.Now()
		est := orc.Query(u, v)
		oracleTime += time.Since(t0)
		t0 = time.Now()
		d := shortest.Dijkstra(g, u).Dist[v]
		dijkstraTime += time.Since(t0)
		if math.IsInf(d, 1) || pathsep.IsZeroDist(d) {
			continue
		}
		ratio := est / d
		if ratio > worst {
			worst = ratio
		}
		sum += ratio
		count++
	}
	fmt.Printf("audited %d trips: max stretch %.4f, mean %.4f\n", count, worst, sum/float64(count))
	fmt.Printf("per-query: oracle %v vs dijkstra %v (%.0fx faster)\n",
		(oracleTime / 200).Round(time.Microsecond), (dijkstraTime / 200).Round(time.Microsecond),
		float64(dijkstraTime)/float64(oracleTime))

	// Spot check one trip.
	u, v := 0, g.N()-1
	fmt.Printf("corner-to-corner travel time: approx %.1f, exact %.1f\n",
		orc.Query(u, v), shortest.Dijkstra(g, u).Dist[v])
}
