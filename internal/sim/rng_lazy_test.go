package sim

import (
	"fmt"
	"testing"

	"riseandshine/internal/graph"
)

// lazyDrawAlg exercises lazy node seeding: a node's generator is reseeded
// on its first Rand() call of a run, not at its wake. Each node takes one
// of three roles, role = (v + shift) mod 3:
//
//   - 0 draws in OnWake and again on every message;
//   - 1 never draws in OnWake, only from its second message on;
//   - 2 never draws at all.
//
// Every node broadcasts once on wake, so on graphs of minimum degree ≥ 2
// role-1 nodes reach their second message. Each draw is appended to the
// node's own row of draws, so concurrent shards write disjoint rows.
type lazyDrawAlg struct {
	g     *graph.Graph
	shift int
	draws [][]uint64
}

func (a *lazyDrawAlg) Name() string { return "lazy-draw" }

func (a *lazyDrawAlg) NewMachine(info NodeInfo) Program {
	v := a.g.IndexOf(info.ID)
	return &lazyDrawMachine{role: (v + a.shift) % 3, out: &a.draws[v]}
}

type lazyDrawMachine struct {
	role int
	msgs int
	out  *[]uint64
}

func (m *lazyDrawMachine) draw(ctx Context, k int) {
	for i := 0; i < k; i++ {
		*m.out = append(*m.out, ctx.Rand().Uint64())
	}
}

func (m *lazyDrawMachine) OnWake(ctx Context) {
	if m.role == 0 {
		m.draw(ctx, 2)
	}
	for p := 1; p <= ctx.Info().Degree; p++ {
		ctx.Send(p, chattyMsg{})
	}
}

func (m *lazyDrawMachine) OnMessage(ctx Context, _ Delivery) {
	m.msgs++
	switch {
	case m.role == 0:
		m.draw(ctx, 1)
	case m.role == 1 && m.msgs >= 2:
		m.draw(ctx, m.msgs)
	}
}

// checkLazyDraws requires every node's drawn values to be exactly the
// prefix of its NodeRand(seed, v) stream, and every role to have behaved
// as designed (role-0 and role-1 nodes drew, role-2 nodes did not).
func checkLazyDraws(t *testing.T, label string, alg *lazyDrawAlg, seed int64) {
	t.Helper()
	for v, got := range alg.draws {
		role := (v + alg.shift) % 3
		if (role == 2) != (len(got) == 0) {
			t.Fatalf("%s: node %d (role %d) drew %d values", label, v, role, len(got))
		}
		want := NodeRand(seed, v)
		for i, x := range got {
			if w := want.Uint64(); x != w {
				t.Fatalf("%s: node %d (role %d) draw %d = %016x, NodeRand stream has %016x", label, v, role, i, x, w)
			}
		}
	}
}

// TestLazySeedingMatchesNodeRand pins the lazy-seeding lever: streams that
// are first read at wake, only late in a run, or never, all equal
// NodeRand(seed, v) — on a fresh AsyncEngine, on a reused one, and on the
// sharded engine at P ∈ {2, 4}, fresh and reused. The reused engines first
// run the same seed with shift 0 and then with shift 1, which turns every
// role-0 node (it drew at wake in run 1) into a role-1 node (it draws only
// late in run 2): a seeded flag or generator state leaking across runs
// would continue run 1's stream instead of restarting it.
func TestLazySeedingMatchesNodeRand(t *testing.T) {
	graphs := []*graph.Graph{graph.Torus(6, 7), graph.RandomConnected(80, 0.08, newTestRand(4)), graph.Complete(9)}
	const seed = 17
	for gi, g := range graphs {
		cfg := Config{
			Graph:     g,
			Model:     Model{Knowledge: KT0, Bandwidth: Local},
			Adversary: Adversary{Schedule: RandomWake{Count: 3, Window: 1, Seed: int64(gi)}, Delays: RandomDelay{Seed: 5, Min: 0.25}},
			Seed:      seed,
		}
		newAlg := func(shift int) *lazyDrawAlg {
			return &lazyDrawAlg{g: g, shift: shift, draws: make([][]uint64, g.N())}
		}
		runOn := func(label string, run func(Config, Algorithm) (*Result, error), shift int) {
			t.Helper()
			alg := newAlg(shift)
			res, err := run(cfg, alg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.AllAwake {
				t.Fatalf("%s: only %d/%d nodes woke", label, res.AwakeCount, res.N)
			}
			checkLazyDraws(t, label, alg, seed)
		}

		for shift := 0; shift < 3; shift++ {
			runOn(fmt.Sprintf("graph %d shift %d fresh async", gi, shift), RunAsync, shift)
		}
		reused := new(AsyncEngine)
		runOn(fmt.Sprintf("graph %d reused async run 1", gi), reused.Run, 0)
		runOn(fmt.Sprintf("graph %d reused async run 2", gi), reused.Run, 1)

		for _, p := range []int{2, 4} {
			cfg.Shards = p
			runOn(fmt.Sprintf("graph %d P=%d fresh sharded", gi, p), RunSharded, 2)
			sharded := new(ShardedEngine)
			runOn(fmt.Sprintf("graph %d P=%d reused sharded run 1", gi, p), sharded.Run, 0)
			runOn(fmt.Sprintf("graph %d P=%d reused sharded run 2", gi, p), sharded.Run, 1)
		}
		cfg.Shards = 0
	}
}

// TestNonDrawingNodesSkipReseed checks the point of the lever: a node that
// never calls Rand() is never reseeded, so a flood pays nothing for node
// randomness, while every drawing node's generator was seeded exactly once.
func TestNonDrawingNodesSkipReseed(t *testing.T) {
	g := graph.Torus(5, 5)
	alg := &lazyDrawAlg{g: g, draws: make([][]uint64, g.N())}
	eng := new(AsyncEngine)
	cfg := Config{
		Graph:     g,
		Model:     Model{Knowledge: KT0, Bandwidth: Local},
		Adversary: Adversary{Schedule: WakeSet{Nodes: []int{0}}},
		Seed:      3,
	}
	if _, err := eng.Run(cfg, alg); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if drew := len(alg.draws[v]) > 0; eng.run.seeded[v] != drew {
			t.Errorf("node %d: seeded=%v but drew %d values", v, eng.run.seeded[v], len(alg.draws[v]))
		}
	}
	if _, err := eng.Run(cfg, floodAlg{}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if eng.run.seeded[v] {
			t.Fatalf("node %d reseeded during a flood, which never draws", v)
		}
	}
}
