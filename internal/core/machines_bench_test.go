package core_test

import (
	"math/rand"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/experiment"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

// BenchmarkMachines times the algorithms' own machine state on table1's
// largest cells for the two KT1 LOCAL rows: the ranked DFS (Theorem 3) on
// connected:2048:0.01 under a staggered wake with random delays, and
// FastWakeUp (Theorem 4) on connected:512:0.2 with every node awake. The
// graph, ports and Setup are built once and the engine is reused, so each
// iteration is one run: the engine's steady-state event loop plus the
// machines' handlers.
func BenchmarkMachines(b *testing.B) {
	const seed = 1
	model := sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local}
	setup := func(b *testing.B, spec string) *sim.Setup {
		g, err := experiment.ParseGraph(spec, seed)
		if err != nil {
			b.Fatal(err)
		}
		ports := graph.RandomPorts(g, rand.New(rand.NewSource(seed)))
		s, err := sim.NewSetup(g, ports, model, seed, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}

	b.Run("dfs-rank/connected:2048:0.01", func(b *testing.B) {
		s := setup(b, "connected:2048:0.01")
		cfg := sim.Config{
			Graph: s.Graph, Ports: s.Ports, Model: model, Setup: s, Seed: seed,
			Adversary: sim.Adversary{
				Schedule: sim.StaggeredWake{Sizes: []int{1, 2, 4, 8}, Gap: 64, Seed: seed},
				Delays:   sim.RandomDelay{Seed: seed},
			},
		}
		eng := new(sim.AsyncEngine)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(cfg, core.DFSRank{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("fast-wakeup/connected:512:0.2", func(b *testing.B) {
		s := setup(b, "connected:512:0.2")
		cfg := sim.SyncConfig{Graph: s.Graph, Ports: s.Ports, Model: model, Setup: s, Seed: seed, Schedule: sim.WakeAll{}}
		eng := new(sim.AsyncEngine)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunSync(cfg, core.FastWakeUp{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
