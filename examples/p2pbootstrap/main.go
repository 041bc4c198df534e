// P2P bootstrap: the scenario the paper's introduction motivates. A
// peer-to-peer network starts from a sparse, badly shaped knowledge
// graph (each peer knows a couple of others — a weakly connected
// random chain with shortcuts). The overlay construction turns it into
// a structured network in O(log n) rounds; from the resulting ranks
// the peers derive a Chord-style finger ring and a De Bruijn overlay
// and serve lookups in O(log n) hops.
//
//	go run ./examples/p2pbootstrap [n]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"overlay"
)

func main() {
	log.SetFlags(0)
	n := 512
	if len(os.Args) > 1 {
		v, err := strconv.Atoi(os.Args[1])
		if err != nil || v < 8 {
			log.Fatalf("usage: p2pbootstrap [n>=8], got %q", os.Args[1])
		}
		n = v
	}

	// Bootstrap graph: a ring of introductions (every peer joined by
	// contacting one known peer) plus a few random shortcuts from
	// gossip — constant degree, poor diameter.
	g := overlay.NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	rngState := uint64(0x9e3779b97f4a7c15)
	next := func(m int) int {
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		return int(rngState % uint64(m))
	}
	for i := 0; i < n/16; i++ {
		u, v := next(n), next(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}

	res, err := overlay.BuildTree(g, &overlay.Options{Seed: 7})
	if err != nil {
		log.Fatalf("bootstrap failed: %v", err)
	}
	fmt.Printf("bootstrapped %d peers in %d rounds (expander diameter %d)\n",
		n, res.Stats.Rounds, res.Stats.ExpanderDiameter)

	chord := res.Chord()
	debruijn := res.DeBruijn()
	fmt.Printf("derived overlays: chord %d edges, de bruijn %d edges\n",
		len(chord), len(debruijn))

	// Serve a few lookups over the finger ring.
	lookups := [][2]int{{0, n / 2}, {3, n - 1}, {n / 3, 2 * n / 3}}
	worst := 0
	for _, q := range lookups {
		path, err := res.RouteLookupErr(q[0], q[1])
		if err != nil {
			log.Fatalf("lookup %d -> %d: %v", q[0], q[1], err)
		}
		fmt.Printf("lookup %4d -> %4d: %d hops via %v\n", q[0], q[1], len(path)-1, path)
		if len(path)-1 > worst {
			worst = len(path) - 1
		}
	}
	fmt.Printf("worst lookup: %d hops (log₂ n = %d)\n", worst, logCeil(n))
}

func logCeil(n int) int {
	l := 1
	for (1 << l) < n {
		l++
	}
	return l
}
