package core_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"riseandshine/internal/core"
	"riseandshine/internal/graph"
	"riseandshine/internal/sim"
)

func runDFS(t *testing.T, g *graph.Graph, sched sim.WakeScheduler, delays sim.Delayer, seed int64) *sim.Result {
	t.Helper()
	res, err := sim.RunAsync(sim.Config{
		Graph: g,
		Model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
		Adversary: sim.Adversary{
			Schedule: sched,
			Delays:   delays,
		},
		Seed: seed,
	}, core.DFSRank{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDFSSingleSourceTraversal: with one awake node the execution is a
// single DFS traversal — a tree walk crossing each used edge at most
// twice, so at most 2(n−1) messages (Claim 1).
func TestDFSSingleSourceTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(60, 0.08, rng)
		res := runDFS(t, g, sim.WakeSingle(trial%60), sim.RandomDelay{Seed: int64(trial)}, int64(trial))
		if !res.AllAwake {
			t.Fatal("not all awake")
		}
		if res.Messages > 2*(g.N()-1) {
			t.Fatalf("trial %d: %d messages exceed 2(n-1) = %d", trial, res.Messages, 2*(g.N()-1))
		}
	}
}

// TestDFSPathMessageCount: on a path from one end, the DFS walks to the
// far end and backtracks home: exactly 2(n−1) messages.
func TestDFSPathMessageCount(t *testing.T) {
	g := graph.Path(40)
	res := runDFS(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if res.Messages != 2*39 {
		t.Errorf("messages = %d, want 78", res.Messages)
	}
	if !res.AllAwake {
		t.Error("not all awake")
	}
}

// TestDFSManySources: all nodes woken simultaneously — the token of the
// maximum rank survives; per-node forwards stay logarithmic (Claim 4).
func TestDFSManySources(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(200, 0.05, rng)
	res := runDFS(t, g, sim.WakeAll{}, sim.RandomDelay{Seed: 3}, 4)
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	n := float64(g.N())
	bound := 16 * n * math.Log(n)
	if float64(res.Messages) > bound {
		t.Errorf("messages %d exceed 16·n·ln n = %.0f", res.Messages, bound)
	}
	// Claim 4: each node forwards O(log n) tokens w.h.p. Allow a generous
	// constant.
	maxSent := res.MaxSentByNode()
	if float64(maxSent) > 30*math.Log(n) {
		t.Errorf("a node forwarded %d tokens; Claim 4 predicts O(log n) ≈ %.0f", maxSent, math.Log(n))
	}
}

// TestDFSAdversarialStaggering: the adversary wakes geometrically growing
// batches trying to discard the leading token (the Theorem 3 analysis
// scenario); messages must stay Õ(n).
func TestDFSAdversarialStaggering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(250, 0.03, rng)
	for seed := int64(0); seed < 5; seed++ {
		sched := sim.StaggeredWake{Sizes: []int{1, 1, 2, 4, 8, 16, 32, 64}, Gap: 30, Seed: seed}
		res := runDFS(t, g, sched, sim.RandomDelay{Seed: seed}, seed)
		if !res.AllAwake {
			t.Fatalf("seed %d: not all awake", seed)
		}
		n := float64(g.N())
		if float64(res.Messages) > 25*n*math.Log(n) {
			t.Errorf("seed %d: messages %d above Õ(n) envelope", seed, res.Messages)
		}
	}
}

// TestDFSLateWakeupsDoNotBreakCorrectness: nodes woken long after the
// main traversal finished still must not leave anyone asleep.
func TestDFSLateWakeups(t *testing.T) {
	g := graph.Cycle(30)
	sched := sim.StaggeredWake{Sizes: []int{1, 1, 1}, Gap: 500, Seed: 9}
	res := runDFS(t, g, sched, sim.RandomDelay{Seed: 2}, 3)
	if !res.AllAwake {
		t.Fatal("not all awake after late wake-ups")
	}
}

// TestDFSRankDeterminism: identical seeds reproduce the execution.
func TestDFSRankDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(80, 0.06, rng)
	sched := sim.RandomWake{Count: 5, Window: 10, Seed: 8}
	a := runDFS(t, g, sched, sim.RandomDelay{Seed: 7}, 11)
	b := runDFS(t, g, sched, sim.RandomDelay{Seed: 7}, 11)
	if a.Messages != b.Messages || a.Span != b.Span {
		t.Error("same-seed executions differ")
	}
	c := runDFS(t, g, sched, sim.RandomDelay{Seed: 7}, 12)
	// Different node seeds draw different ranks; the execution almost
	// surely differs in message count or timing.
	if c.Messages == a.Messages && c.Span == a.Span && c.Events == a.Events {
		t.Log("warning: different seeds produced identical executions (possible but unlikely)")
	}
}

// TestDFSRankBitsOverride: a 62-bit-capped rank width is accepted and the
// algorithm still works with tiny widths (collisions allowed: ties break
// by origin ID, so correctness is unaffected).
func TestDFSRankBitsOverride(t *testing.T) {
	g := graph.Cycle(20)
	for _, bits := range []int{1, 8, 100} {
		res, err := sim.RunAsync(sim.Config{
			Graph: g,
			Model: sim.Model{Knowledge: sim.KT1, Bandwidth: sim.Local},
			Adversary: sim.Adversary{
				Schedule: sim.WakeAll{},
			},
			Seed: 5,
		}, core.DFSRank{RankBits: bits})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if !res.AllAwake {
			t.Fatalf("bits=%d: not all awake", bits)
		}
	}
}

// TestDFSTimeLinearOnCycle: token pass time is one unit per hop; a cycle
// from a single source completes within ~2n time units.
func TestDFSTimeLinearOnCycle(t *testing.T) {
	g := graph.Cycle(50)
	res := runDFS(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
	if res.Span > 2*50 {
		t.Errorf("span %v exceeds 2n", res.Span)
	}
	if res.Span < 49 {
		t.Errorf("span %v suspiciously small for a 50-cycle", res.Span)
	}
}

// TestDFSRankAllocScaling: one traversal of Cycle(n) makes about 2n hops.
// The token carries its visited set, so a hop checks only the holder's
// neighbors and the run allocates O(n) bytes in all. Rebuilding the set
// from the visited list at every hop makes it O(n²): 4× the bytes when n
// doubles.
func TestDFSRankAllocScaling(t *testing.T) {
	allocated := func(n int) uint64 {
		g := graph.Cycle(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runDFS(t, g, sim.WakeSingle(0), sim.UnitDelay{}, 1)
		runtime.ReadMemStats(&after)
		if !res.AllAwake {
			t.Fatalf("n=%d: not all awake", n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := allocated(1024), allocated(2048)
	t.Logf("bytes allocated: %d at n=1024, %d at n=2048 (%.2fx)", small, big, float64(big)/float64(small))
	if float64(big) > 2.5*float64(small) {
		t.Errorf("allocation grows superlinearly: %d B at n=1024, %d B at n=2048 (%.2fx, want <= 2.5x)",
			small, big, float64(big)/float64(small))
	}
}
